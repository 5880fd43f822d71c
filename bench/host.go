package main

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// its neighbours change how fast it executes the same instructions by up
// to 2× for tens of seconds at a time (README.md, "Sizing"). No window the
// time cap allows outlasts that, so the untraced pass measures the host
// while it measures the system and divides one by the other:
//
//   - the worker runs a reference kernel — code of the Go standard library
//     only, so no change to this repository can move it — once every
//     refEvery of the window, in its own loop, on its own thread;
//   - the window is cut into bins of binLen, and every time measured in a
//     bin is divided by that bin's slowdown, the kernel's time in the bin
//     over refNominal, each clock by the kernel on the same clock: elapsed
//     time (a total, which includes every moment the host gave to somebody
//     else) by the kernel's mean elapsed time, the process's CPU time by
//     the kernel's mean CPU time, an operation's latency (reported as a
//     median, which leaves those moments out) by the kernel's median time.
//
// What the end-to-end metrics report is therefore "on a host that runs the
// kernel in refNominal", which is this box when nobody else is on it. The
// slowdown itself is reported as bench.host_slowdown.
const (
	binLen = 500 * time.Millisecond
	// refEvery makes the kernel a tenth of the window. Run a quarter as
	// often, its mean missed most of the moments the host took away, and
	// throughput spread twice as far (README.md, "Sizing").
	refEvery = 3 * time.Millisecond
	// refAround is how long the kernel runs before and after each set-up.
	refAround = 20 * time.Millisecond
	// refNominal is the kernel's time on this box at its fastest. It only
	// sets the scale of the normalised numbers; it must never change, or
	// every number moves with it.
	refNominal = 330 * time.Microsecond
)

// pinRuntime fixes what the Go runtime would otherwise decide from the
// machine and the moment. One processor: the load is one closed-loop caller
// (workload.go), and on a second core the collector's workers and the
// socket readers only add cross-core traffic that varies with the
// neighbours. A fixed heap budget instead of GOGC: the system's live heap
// is 2-7 MB, so GOGC=100 collects 150 times a second at first and half as
// often once the harness's own records have doubled the heap — throughput
// rose 25 % over a 12 s window for no reason but that.
func pinRuntime() {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(128 << 20)
}

// refDoc is what the reference kernel encodes and decodes: strings, a
// slice, a map and a byte slice, so the kernel allocates, copies, hashes
// and chases pointers in about the proportions the system does. Of the
// kernels tried (integer arithmetic, a pointer walk, small allocations, a
// map under a mutex, this one) it followed the system's own slowdown most
// closely: correlation 0.9, slope 0.85 on mix-mem and on replicated.
type refDoc struct {
	ID    string            `json:"id"`
	Seq   uint64            `json:"seq"`
	Tags  []string          `json:"tags"`
	Attrs map[string]string `json:"attrs"`
	Body  []byte            `json:"body"`
}

var refInput = refDoc{
	ID: "0123456789abcdef", Seq: 1234567, Tags: []string{"a", "bb", "ccc", "dddd"},
	Attrs: map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"}, Body: make([]byte, 96),
}

var refSink uint64

// refKernel is sixty JSON round trips of refInput.
func refKernel() {
	for i := 0; i < 60; i++ {
		b, _ := json.Marshal(&refInput)
		var d refDoc
		_ = json.Unmarshal(b, &d)
		refSink += d.Seq
	}
}

// refAllocs is how many objects one refKernel call allocates, measured once
// so that allocs_per_op can leave the kernel's out.
var refAllocs = func() float64 {
	const calls = 50
	refKernel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		refKernel()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / calls
}()

// timeRef runs the kernel until budget has passed and returns the mean time
// of a call: the host's speed around a set-up.
func timeRef(budget time.Duration) time.Duration {
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		refKernel()
		calls++
	}
	return time.Since(start) / time.Duration(calls)
}

// slowdown is how much slower than nominal the host ran the kernel.
func slowdown(ref time.Duration) float64 {
	return float64(ref) / float64(refNominal)
}

// bin is what the worker saw between two crossings of a binLen boundary.
// The worker closes a bin itself, between two operations, so the counts and
// the clocks are read at the same instant.
type bin struct {
	elapsed   time.Duration // wall time from the previous crossing to this one
	cpu       time.Duration // process user+sys CPU over the same interval
	mallocs   uint64        // objects allocated over the same interval
	ops       int           // operations completed
	refTime   time.Duration // spent in the reference kernel
	refCPU    time.Duration // process CPU spent in the reference kernel
	refCalls  int
	refMedian time.Duration // median time of one kernel call
}

// A bin has three slowdowns, one per kind of time it holds: of its elapsed
// time, of its CPU time, and of the latencies it takes a median of. Each is
// 1 (no correction) when the kernel did not run in the bin — an operation
// outlasted it.
func (b bin) slowdownOfElapsed() float64 {
	if b.refCalls == 0 {
		return 1
	}
	return slowdown(b.refTime / time.Duration(b.refCalls))
}

func (b bin) slowdownOfCPU() float64 {
	if b.refCalls == 0 {
		return 1
	}
	return slowdown(b.refCPU / time.Duration(b.refCalls))
}

func (b bin) slowdownOfMedians() float64 {
	if b.refCalls == 0 {
		return 1
	}
	return slowdown(b.refMedian)
}

// procSample is the process's CPU time and allocation count at an instant.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
}

func sampleProcess() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: processCPU(), mallocs: ms.Mallocs}
}

// processCPU is the process's user+sys CPU time so far (µs resolution, half
// a microsecond to read).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
