package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// tracer decorates the workload's transport.Network — the one public seam
// every layer's traffic crosses — and records, from outside the system:
//
//   - always: a call count and payload bytes per service.method, nested
//     calls included (the C-source transport.* and replica.* metrics);
//   - for an operation the worker marked traced: one span per Call with
//     its parent, so that a layer's self time is its span minus what its
//     children cover.
//
// An operation is identified by the context the worker hands to Atomic.
// The in-memory carrier runs the handler on the caller's goroutine with
// the caller's context, so server→store and server→group calls nest under
// the client's span. Over sockets the context does not travel: nested
// calls there have no parent and appear in the counts only. A few client
// calls are issued under context.Background() (the binder's EndAction on
// resolve); they are matched to the operation by their origin, since each
// worker owns its client node and runs one operation at a time.
type tracer struct {
	inner transport.Network
	epoch time.Time

	mu      sync.RWMutex
	methods map[methodKey]int // → index into names and agg
	names   []methodKey
	agg     []*methodAgg
	addrs   map[transport.Addr]uint16
	addrTab []transport.Addr

	// active holds each client node's operation in progress; current is
	// the same set indexed by worker.
	active  map[transport.Addr]*atomic.Pointer[opTrace]
	current []*atomic.Pointer[opTrace]
	// perWorker keeps finished operations; only worker i appends to [i].
	perWorker [][]*opTrace
	late      atomic.Int64 // spans that ended after their operation did
}

type methodKey struct{ service, method string }

type methodAgg struct {
	calls, bytes atomic.Int64
}

// netCounts is a snapshot of the always-on counts.
type netCounts struct {
	calls, bytes int64
	byMethod     map[methodKey]int64
}

// callSpan is one Network.Call of a traced operation. It holds no
// pointers, so a long run's spans cost the collector nothing to scan.
type callSpan struct {
	ID, Parent int32 // 1-based within the operation; parent 0 is the operation itself
	Method     int32 // index into tracer.names
	From, To   uint16
	ErrClass   uint8 // 0 ok, 1 application error frame, 2 transport error
	ReqBytes   int32
	RespBytes  int32
	Start, End int64 // ns since the tracer's epoch
}

// opTrace is one traced operation: the worker's op span plus its calls.
type opTrace struct {
	Worker     int
	Seq        int
	Class      opClass
	Failed     bool
	Start, End int64

	nextID atomic.Int32
	mu     sync.Mutex
	sealed bool
	spans  []callSpan
}

type traceKey struct{}

// traceCtx is what travels in the context: the operation and the span
// that any call made under this context is a child of.
type traceCtx struct {
	op     *opTrace
	parent int32
}

func newTracer(inner transport.Network, clients []transport.Addr) *tracer {
	t := &tracer{
		inner:     inner,
		epoch:     time.Now(),
		methods:   map[methodKey]int{},
		addrs:     map[transport.Addr]uint16{},
		active:    map[transport.Addr]*atomic.Pointer[opTrace]{},
		perWorker: make([][]*opTrace, len(clients)),
	}
	for _, c := range clients {
		cur := new(atomic.Pointer[opTrace])
		t.active[c] = cur
		t.current = append(t.current, cur)
	}
	return t
}

// Register implements transport.Network.
func (t *tracer) Register(addr transport.Addr, h transport.Handler) { t.inner.Register(addr, h) }

// Unregister implements transport.Network.
func (t *tracer) Unregister(addr transport.Addr) { t.inner.Unregister(addr) }

// Close tears down a socket carrier (System.Close looks for it).
func (t *tracer) Close() error {
	if c, ok := t.inner.(interface{ Close() }); ok {
		c.Close()
	}
	return nil
}

// intern returns the indices of the call's method and endpoints,
// registering them on first sight.
func (t *tracer) intern(req transport.Request) (method int, agg *methodAgg, from, to uint16) {
	k := methodKey{req.Service, req.Method}
	t.mu.RLock()
	method, okM := t.methods[k]
	from, okF := t.addrs[req.From]
	to, okT := t.addrs[req.To]
	if okM {
		agg = t.agg[method]
	}
	t.mu.RUnlock()
	if okM && okF && okT {
		return method, agg, from, to
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.methods[k]; !ok {
		t.methods[k] = len(t.names)
		t.names = append(t.names, k)
		t.agg = append(t.agg, new(methodAgg))
	}
	for _, a := range []transport.Addr{req.From, req.To} {
		if _, ok := t.addrs[a]; !ok {
			t.addrs[a] = uint16(len(t.addrTab))
			t.addrTab = append(t.addrTab, a)
		}
	}
	method = t.methods[k]
	return method, t.agg[method], t.addrs[req.From], t.addrs[req.To]
}

// Call implements transport.Network.
func (t *tracer) Call(ctx context.Context, req transport.Request) ([]byte, error) {
	method, agg, from, to := t.intern(req)

	var op *opTrace
	var parent int32
	if tc, _ := ctx.Value(traceKey{}).(*traceCtx); tc != nil {
		op, parent = tc.op, tc.parent
	} else if cur := t.active[req.From]; cur != nil {
		op = cur.Load()
	}
	if op == nil {
		resp, err := t.inner.Call(ctx, req)
		agg.calls.Add(1)
		agg.bytes.Add(int64(len(req.Payload) + len(resp)))
		return resp, err
	}

	id := op.nextID.Add(1)
	ctx = context.WithValue(ctx, traceKey{}, &traceCtx{op: op, parent: id})
	start := time.Now()
	resp, err := t.inner.Call(ctx, req)
	end := time.Now()
	agg.calls.Add(1)
	agg.bytes.Add(int64(len(req.Payload) + len(resp)))

	sp := callSpan{
		ID: id, Parent: parent, Method: int32(method), From: from, To: to,
		ReqBytes: int32(len(req.Payload)), RespBytes: int32(len(resp)),
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	}
	switch {
	case err != nil:
		sp.ErrClass = 2
	case len(resp) > 0 && resp[0] == 0x02: // rpc's error frame tag
		sp.ErrClass = 1
	}
	op.mu.Lock()
	if op.sealed {
		t.late.Add(1)
	} else {
		op.spans = append(op.spans, sp)
	}
	op.mu.Unlock()
	return resp, err
}

// beginOp marks the worker's next operation traced: calls made under the
// returned context, or from the worker's client node, become its spans.
func (t *tracer) beginOp(ctx context.Context, worker int, class opClass) (context.Context, *opTrace) {
	op := &opTrace{Worker: worker, Seq: len(t.perWorker[worker]), Class: class, spans: make([]callSpan, 0, 16)}
	t.current[worker].Store(op)
	return context.WithValue(ctx, traceKey{}, &traceCtx{op: op}), op
}

// endOp seals the operation; a call still in flight is dropped and counted
// late rather than attached to the worker's next operation.
func (t *tracer) endOp(worker int, op *opTrace, start, end time.Time, failed bool) {
	t.current[worker].Store(nil)
	op.Start, op.End, op.Failed = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch)), failed
	op.mu.Lock()
	op.sealed = true
	op.mu.Unlock()
	t.perWorker[worker] = append(t.perWorker[worker], op)
}

func (t *tracer) counts() netCounts {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := netCounts{byMethod: map[methodKey]int64{}}
	for i, k := range t.names {
		n := t.agg[i].calls.Load()
		c.byMethod[k] = n
		c.calls += n
		c.bytes += t.agg[i].bytes.Load()
	}
	return c
}

func (c netCounts) sub(old netCounts) netCounts {
	out := netCounts{calls: c.calls - old.calls, bytes: c.bytes - old.bytes, byMethod: map[methodKey]int64{}}
	for k, v := range c.byMethod {
		out.byMethod[k] = v - old.byMethod[k]
	}
	return out
}

// ops returns every traced operation, call by call in start order.
func (t *tracer) ops() []*opTrace {
	var all []*opTrace
	for _, ops := range t.perWorker {
		all = append(all, ops...)
	}
	for _, op := range all {
		sort.Slice(op.spans, func(i, j int) bool { return op.spans[i].Start < op.spans[j].Start })
	}
	return all
}

// layerTimes is where one operation's wall time went. The layers
// partition the op span: every instant belongs to the deepest call that
// was running (the earliest-started one where calls run in parallel, so a
// fan-out is charged the time of its slowest leg, not the sum), or to
// "arjuna" when no call was.
type layerTimes struct {
	byService map[string]time.Duration // "arjuna" = the facade's self time
	invoke    time.Duration            // under client-issued objsrv Invoke*/LeaseCheck spans
	commit    time.Duration            // under client-issued objsrv Prepare/Commit/PrepareCommit/Abort spans
	leafTime  time.Duration            // total duration of the spans with no child
	leaves    int
}

// attribute partitions op's span among the layers.
func (t *tracer) attribute(op *opTrace) layerTimes {
	lt := layerTimes{byService: map[string]time.Duration{}}
	children := map[int32][]int{}
	for i, sp := range op.spans {
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var walk func(owner string, kids []int, from, to int64, depth int)
	walk = func(owner string, kids []int, from, to int64, depth int) {
		self, covered := to-from, from
		for _, i := range kids { // start order, see ops()
			sp := op.spans[i]
			a, b := max(sp.Start, covered), min(sp.End, to)
			if b <= a {
				continue
			}
			covered = b
			self -= b - a
			name := t.names[sp.Method]
			if depth == 0 && name.service == "objsrv" {
				switch name.method {
				case "Prepare", "Commit", "PrepareCommit", "Abort":
					lt.commit += time.Duration(b - a)
				default:
					lt.invoke += time.Duration(b - a)
				}
			}
			walk(name.service, children[sp.ID], a, b, depth+1)
		}
		// What the children did not cover is the owner's own time.
		lt.byService[owner] += time.Duration(self)
	}
	walk("arjuna", children[0], op.Start, op.End, 0)
	for _, sp := range op.spans {
		if len(children[sp.ID]) == 0 {
			lt.leafTime += time.Duration(sp.End - sp.Start)
			lt.leaves++
		}
	}
	return lt
}

// traceFile is the JSON written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload  string             `json:"workload"`
	Ops       int                `json:"traced_ops"`
	LateSpans int64              `json:"late_spans"`
	Slowest   map[string][]opDoc `json:"slowest"` // class → the 10 slowest operations
	Sample    []opDoc            `json:"sample"`  // the first operations of the traced window
}

type opDoc struct {
	ID      string    `json:"id"`
	Class   string    `json:"class"`
	Failed  bool      `json:"failed,omitempty"`
	StartUS float64   `json:"start_us"`
	EndUS   float64   `json:"end_us"`
	Spans   []spanDoc `json:"spans"`
}

type spanDoc struct {
	ID        int32   `json:"id"`
	Parent    int32   `json:"parent"`
	Name      string  `json:"name"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	ReqBytes  int32   `json:"req_bytes"`
	RespBytes int32   `json:"resp_bytes"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
	Err       string  `json:"err,omitempty"`
}

// sampleOps bounds the file: every span stays in memory for the ledger,
// but 10^5 operations of JSON per run would cost more than the run.
const sampleOps = 500

func (t *tracer) doc(op *opTrace) opDoc {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	d := opDoc{
		ID:    "w" + strconv.Itoa(op.Worker) + "-" + strconv.Itoa(op.Seq),
		Class: classNames[op.Class], Failed: op.Failed,
		StartUS: us(op.Start), EndUS: us(op.End),
		Spans: make([]spanDoc, 0, len(op.spans)),
	}
	for _, sp := range op.spans {
		k := t.names[sp.Method]
		d.Spans = append(d.Spans, spanDoc{
			ID: sp.ID, Parent: sp.Parent, Name: k.service + "." + k.method,
			From: string(t.addrTab[sp.From]), To: string(t.addrTab[sp.To]),
			ReqBytes: sp.ReqBytes, RespBytes: sp.RespBytes,
			StartUS: us(sp.Start), EndUS: us(sp.End),
			Err: [...]string{"", "app", "transport"}[sp.ErrClass],
		})
	}
	return d
}

// write saves the slowest ten operations per class and a sample of the
// window to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, ops []*opTrace) error {
	f := traceFile{Workload: workload, Ops: len(ops), LateSpans: t.late.Load(), Slowest: map[string][]opDoc{}}
	byClass := map[opClass][]*opTrace{}
	for _, op := range ops {
		byClass[op.Class] = append(byClass[op.Class], op)
	}
	for class, cops := range byClass {
		sort.Slice(cops, func(i, j int) bool { return cops[i].End-cops[i].Start > cops[j].End-cops[j].Start })
		for _, op := range cops[:min(10, len(cops))] {
			f.Slowest[classNames[class]] = append(f.Slowest[classNames[class]], t.doc(op))
		}
	}
	byStart := append([]*opTrace(nil), ops...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	for _, op := range byStart[:min(sampleOps, len(byStart))] {
		f.Sample = append(f.Sample, t.doc(op))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
