package exec

// Engine names the host engine that ran a simulation. Every run goes
// through the one serial region scheduler, so the type has a single
// value; it exists only so the benchmark in perfbench/ can keep labelling
// its runs by Result.EngineUsed, and can go once that benchmark stops
// reading it.
type Engine int

// EngineSerial is the serial region scheduler (region.go).
const EngineSerial Engine = 0

func (Engine) String() string { return "serial" }
