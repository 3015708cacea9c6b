package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPOversizedBody: a POST /jobs or /batch body over maxRequestBytes
// is refused with 413 before any of it is admitted.
func TestHTTPOversizedBody(t *testing.T) {
	srv := New(Options{runJob: func(j *Job) ([]byte, error) { return []byte(`{"v":1}`), nil }})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	big := `"` + strings.Repeat("c", maxRequestBytes) + `"`
	bodies := map[string]string{
		"/jobs":  `{"sources":{"x.f":` + big + `}}`,
		"/batch": `{"jobs":[{"sources":{"x.f":` + big + `}}]}`,
	}
	for path, body := range bodies {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if st := srv.ServerStats(); st.Jobs != 0 || st.Simulations != 0 {
		t.Fatalf("oversized bodies reached the scheduler: %+v", st)
	}
}

// TestHTTPLegacyEngineFieldIgnored: clients from before the host engine
// was removed still send "engine". The field is accepted and ignored, and
// the job is served from the store entry of the same job without it (the
// engine was never part of the job key).
func TestHTTPLegacyEngineFieldIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator run")
	}
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: store})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(extra map[string]any) JobView {
		t.Helper()
		req := map[string]any{"sources": transposeReq().Sources, "machine": "tiny", "procs": 2}
		for k, v := range extra {
			req[k] = v
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /jobs %v: status %d", extra, resp.StatusCode)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("POST /jobs %v: state %s: %s", extra, v.State, v.Error)
		}
		return v
	}
	plain := post(nil)
	legacy := post(map[string]any{"engine": "parallel"})
	if !legacy.Cached || legacy.Key != plain.Key {
		t.Fatalf("legacy request: cached=%v key %s, want a store hit on %s", legacy.Cached, legacy.Key, plain.Key)
	}
	stored, ok := store.Get(KindResult, plain.Key)
	if !ok {
		t.Fatal("no stored result")
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, stored); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, legacy.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("legacy request served a different result document")
	}
	if sims := srv.ServerStats().Simulations; sims != 1 {
		t.Fatalf("%d simulations, want 1", sims)
	}
}
