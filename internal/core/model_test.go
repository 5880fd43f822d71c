package core

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/uid"
)

var dbModelSeed = flag.Int64("db-model-seed", 0, "run TestDBAgainstModel on this seed alone")

// The reference model of the group view database: the database's rules as
// its comments state them, over plain maps — no lock table, no
// snapshot sets shared with the implementation, no record encoding.
//
//   - Entries: Sv as a node list with use counters keyed by (server,
//     client), St as a node list with a class. A counter is never negative:
//     a decrement stops at zero, and a decrement of an object with no entry
//     drops nothing and succeeds.
//   - Locks: per entry, per owner, a count per mode. Two owners may hold
//     modes at once only as modelShares says: Read shares with Read, Adjust
//     and ExcludeWrite, Adjust with Read and Adjust, nothing with
//     ExcludeWrite but Read, and nothing with Write. An owner's own holds
//     never stop it. A request that cannot be granted at once is refused.
//   - Actions: a named one lives until EndAction; a message's own one ends
//     with the message, committed if every op succeeded. An action that
//     changes an entry under Write (ExcludeWrite for St) keeps the entry's
//     pre-image and abort restores it; a use-count change under Adjust is
//     logged as the delta it made, and abort takes the deltas back, newest
//     first, each stopping at zero.
//   - Durability: each entry has a committed state, which is what its
//     durable record holds. A commit sets the committed state of every entry
//     the action changed under Write to the entry as it stands, and adds the
//     action's Adjust deltas, each stopping at zero, to the committed
//     counters of the others. A crash drops every action and lock and leaves
//     the committed state.
//   - Forwards: a Deregister names the database the object moves to. The
//     commit that takes away an entry the action found sets the UID's
//     forward to it, a commit that leaves the UID registered clears it, and
//     every unknown-object answer for the UID names it. Forwards are
//     committed state.
type dbModel struct {
	servers, committedServers map[uid.UID]*mServer
	states, committedStates   map[uid.UID]*mState
	forwards                  map[uid.UID]transport.Addr
	locks                     map[string]map[string]*[lockmgr.Write + 1]int
	pending                   map[string]*mPending
}

type mServer struct {
	nodes []transport.Addr
	use   map[useKey]int
}

type mState struct {
	nodes []transport.Addr
	class string
}

// mPending is what an action in flight has changed: the pre-images of the
// entries it changed under Write (nil: the entry did not exist), its Adjust
// deltas, in order, and where its Deregisters sent each object.
type mPending struct {
	servers map[uid.UID]*mServer
	states  map[uid.UID]*mState
	deltas  []useDelta
	movedTo map[uid.UID]transport.Addr
}

func (e *mServer) clone() *mServer {
	return &mServer{nodes: slices.Clone(e.nodes), use: maps.Clone(e.use)}
}

func (e *mState) clone() *mState { return &mState{nodes: slices.Clone(e.nodes), class: e.class} }

func newDBModel() *dbModel {
	return &dbModel{
		servers: map[uid.UID]*mServer{}, committedServers: map[uid.UID]*mServer{},
		states: map[uid.UID]*mState{}, committedStates: map[uid.UID]*mState{},
		locks: map[string]map[string]*[lockmgr.Write + 1]int{}, pending: map[string]*mPending{},
		forwards: map[uid.UID]transport.Addr{},
	}
}

var modelShares = map[lockmgr.Mode][]lockmgr.Mode{
	lockmgr.Read:         {lockmgr.Read, lockmgr.Adjust, lockmgr.ExcludeWrite},
	lockmgr.Adjust:       {lockmgr.Read, lockmgr.Adjust},
	lockmgr.ExcludeWrite: {lockmgr.Read},
}

func (m *dbModel) grantable(key, owner string, mode lockmgr.Mode) bool {
	for other, counts := range m.locks[key] {
		for held, n := range counts {
			if other != owner && n > 0 && !slices.Contains(modelShares[mode], lockmgr.Mode(held)) {
				return false
			}
		}
	}
	return true
}

func (m *dbModel) counts(key, owner string) *[lockmgr.Write + 1]int {
	if m.locks[key] == nil {
		m.locks[key] = map[string]*[lockmgr.Write + 1]int{}
	}
	if m.locks[key][owner] == nil {
		m.locks[key][owner] = &[lockmgr.Write + 1]int{}
	}
	return m.locks[key][owner]
}

// acquire grants mode, or refuses it: the model never waits.
func (m *dbModel) acquire(key, owner string, mode lockmgr.Mode) bool {
	if !m.grantable(key, owner, mode) {
		return false
	}
	m.counts(key, owner)[mode]++
	return true
}

func (m *dbModel) promote(key, owner string, from, to lockmgr.Mode) bool {
	c := m.counts(key, owner)
	if c[from] == 0 || !m.grantable(key, owner, to) {
		return false
	}
	c[from]--
	c[to]++
	return true
}

func strongestMode(c *[lockmgr.Write + 1]int) lockmgr.Mode {
	for mode := lockmgr.Write; mode >= lockmgr.Read; mode-- {
		if c[mode] > 0 {
			return mode
		}
	}
	return 0
}

// holds is the lock table's Holds: at least mode's strength, where an
// ExcludeWrite is held only as itself or under a Write.
func (m *dbModel) holds(key, owner string, mode lockmgr.Mode) bool {
	c := m.counts(key, owner)
	if mode == lockmgr.ExcludeWrite {
		return c[lockmgr.ExcludeWrite] > 0 || c[lockmgr.Write] > 0
	}
	return strongestMode(c) >= mode
}

func (m *dbModel) holders(key string) []string {
	var out []string
	for owner, c := range m.locks[key] {
		if mode := strongestMode(c); mode != 0 {
			out = append(out, owner+":"+mode.String())
		}
	}
	sort.Strings(out)
	return out
}

func (m *dbModel) pendingOf(act string) *mPending {
	if m.pending[act] == nil {
		m.pending[act] = &mPending{servers: map[uid.UID]*mServer{}, states: map[uid.UID]*mState{}, movedTo: map[uid.UID]transport.Addr{}}
	}
	return m.pending[act]
}

func (m *dbModel) snapServer(act string, id uid.UID) {
	p := m.pendingOf(act)
	if _, done := p.servers[id]; done {
		return
	}
	p.servers[id] = nil
	if e := m.servers[id]; e != nil {
		p.servers[id] = e.clone()
	}
}

func (m *dbModel) snapState(act string, id uid.UID) {
	p := m.pendingOf(act)
	if _, done := p.states[id]; done {
		return
	}
	p.states[id] = nil
	if e := m.states[id]; e != nil {
		p.states[id] = e.clone()
	}
}

func inUseAny(use map[useKey]int, host transport.Addr) bool {
	for k, n := range use {
		if k.host == host && n > 0 {
			return true
		}
	}
	return false
}

// choose is the selection rule: the members of Sv with a non-zero counter,
// sorted, else Sv in its order; the first degree of them (0: all) are the
// ones a binding is counted at.
func (e *mServer) choose(degree int) ([]transport.Addr, int) {
	var candidates []transport.Addr
	for _, host := range e.nodes {
		if inUseAny(e.use, host) {
			candidates = append(candidates, host)
		}
	}
	slices.Sort(candidates)
	if len(candidates) == 0 {
		candidates = slices.Clone(e.nodes)
	}
	n := len(candidates)
	if degree > 0 && degree < n {
		n = degree
	}
	return candidates, n
}

func (m *dbModel) adjust(act string, id uid.UID, client transport.Addr, hosts []transport.Addr, delta int, exclusive bool) {
	if exclusive {
		m.snapServer(act, id)
	}
	e := m.servers[id]
	for _, host := range hosts {
		k := useKey{host, client}
		old := e.use[k]
		now := max(old+delta, 0)
		if now == 0 {
			delete(e.use, k)
		} else {
			e.use[k] = now
		}
		if !exclusive && now != old {
			p := m.pendingOf(act)
			p.deltas = append(p.deltas, useDelta{id, k, now - old})
		}
	}
}

// unknown is the answer to an op on a UID without the entry it needs: the
// code, and the database the UID's forward names, if it has one.
func (m *dbModel) unknown(id uid.UID) string {
	if to, ok := m.forwards[id]; ok {
		return CodeUnknownObject + movedToSep + string(to)
	}
	return CodeUnknownObject
}

func removeAll(nodes []transport.Addr, host transport.Addr) []transport.Addr {
	return slices.DeleteFunc(slices.Clone(nodes), func(n transport.Addr) bool { return n == host })
}

// removeServer drops host from Sv with its use list.
func (e *mServer) removeServer(host transport.Addr) {
	e.nodes = removeAll(e.nodes, host)
	for k := range e.use {
		if k.host == host {
			delete(e.use, k)
		}
	}
}

// exec runs one op under act and returns its result and error code.
func (m *dbModel) exec(act string, op *Op) (res OpResult, code string) {
	sv, st := svKey(op.UID), stKey(op.UID)
	switch op.Kind {
	case OpRegister, OpDeregister:
		if !m.acquire(sv, act, lockmgr.Write) || !m.acquire(st, act, lockmgr.Write) {
			return res, CodeLockRefused
		}
		if op.Kind == OpRegister {
			m.snapServer(act, op.UID)
			m.snapState(act, op.UID)
			m.servers[op.UID] = &mServer{nodes: slices.Clone(op.Hosts), use: map[useKey]int{}}
			m.states[op.UID] = &mState{nodes: slices.Clone(op.Stores), class: op.Class}
			return res, ""
		}
		s := m.states[op.UID]
		if s == nil {
			return res, m.unknown(op.UID)
		}
		if m.servers[op.UID] != nil && m.inUse(op.UID) {
			return res, CodeNotQuiescent
		}
		m.snapServer(act, op.UID)
		m.snapState(act, op.UID)
		if op.Host != "" {
			m.pendingOf(act).movedTo[op.UID] = op.Host
		}
		delete(m.servers, op.UID)
		delete(m.states, op.UID)
		return OpResult{Nodes: s.nodes, Class: s.class}, ""
	case OpGetServer, OpSelect:
		mode := lockmgr.Read
		if op.ForUpdate {
			mode = lockmgr.Write
		}
		if !m.acquire(sv, act, mode) {
			return res, CodeLockRefused
		}
		e := m.servers[op.UID]
		if e == nil {
			return res, m.unknown(op.UID)
		}
		if op.Kind == OpSelect {
			res.Nodes, _ = e.choose(0)
			return res, ""
		}
		res.Nodes = slices.Clone(e.nodes)
		if op.WantUse {
			res.Use = map[transport.Addr]map[transport.Addr]int{}
			for _, host := range e.nodes {
				res.Use[host] = map[transport.Addr]int{}
				for k, n := range e.use {
					if k.host == host && n > 0 {
						res.Use[host][k.client] = n
					}
				}
			}
		}
		return res, ""
	case OpInsert, OpRemove, OpRepair:
		if !m.acquire(sv, act, lockmgr.Write) {
			return res, CodeLockRefused
		}
		e := m.servers[op.UID]
		if e == nil {
			return res, m.unknown(op.UID)
		}
		if op.Kind == OpInsert && m.inUse(op.UID) {
			return res, CodeNotQuiescent
		}
		if op.Kind == OpRepair {
			// While any member of Sv is in use, the binding must run on
			// servers in use only.
			var others []transport.Addr
			for _, host := range e.nodes {
				if inUseAny(e.use, host) {
					others = append(others, host)
				}
			}
			if len(others) > 0 && slices.ContainsFunc(op.Hosts, func(h transport.Addr) bool { return !slices.Contains(others, h) }) {
				return res, CodeNotQuiescent
			}
		}
		m.snapServer(act, op.UID)
		switch op.Kind {
		case OpRemove:
			e.removeServer(op.Host)
		case OpRepair:
			for _, host := range op.Stores {
				e.removeServer(host)
			}
			m.adjust(act, op.UID, op.Host, op.Hosts, +1, true)
		default:
			if !slices.Contains(e.nodes, op.Host) {
				e.nodes = append(e.nodes, op.Host)
			}
		}
		return res, ""
	case OpIncrement, OpDecrement, OpBind:
		// An action holding the write lock changes counters under it.
		exclusive := m.holds(sv, act, lockmgr.Write)
		switch {
		case op.Kind == OpBind && op.ForUpdate:
			if !m.acquire(sv, act, lockmgr.Write) {
				return res, CodeLockRefused
			}
			exclusive = true
		case op.Kind == OpBind || !exclusive:
			if !m.acquire(sv, act, lockmgr.Adjust) {
				return res, CodeLockRefused
			}
		}
		e := m.servers[op.UID]
		if e == nil && op.Kind == OpDecrement {
			return res, "" // nothing to drop
		}
		if e == nil {
			return res, m.unknown(op.UID)
		}
		hosts, delta := op.Hosts, 1
		if op.Kind == OpDecrement {
			delta = -1
		}
		if op.Kind == OpBind {
			var n int
			res.Nodes, n = e.choose(op.Degree)
			res.Hosts = res.Nodes[:n:n]
			hosts = res.Hosts
		}
		m.adjust(act, op.UID, op.Host, hosts, delta, exclusive)
		return res, ""
	case OpGetView, OpInclude:
		mode := lockmgr.Read
		if op.Kind == OpInclude {
			mode = lockmgr.Write
		}
		if !m.acquire(st, act, mode) {
			return res, CodeLockRefused
		}
		s := m.states[op.UID]
		if s == nil {
			return res, m.unknown(op.UID)
		}
		if op.Kind == OpInclude {
			m.snapState(act, op.UID)
			if !slices.Contains(s.nodes, op.Host) {
				s.nodes = append(s.nodes, op.Host)
			}
			return OpResult{Nodes: slices.Clone(s.nodes)}, ""
		}
		return OpResult{Nodes: slices.Clone(s.nodes), Class: s.class}, ""
	case OpExclude:
		target := lockmgr.ExcludeWrite
		if op.UseWriteLock {
			target = lockmgr.Write
		}
		for _, p := range op.Pairs {
			key := stKey(p.UID)
			switch {
			case m.holds(key, act, target):
			case m.holds(key, act, lockmgr.Read):
				if !m.promote(key, act, lockmgr.Read, target) {
					return res, CodeLockRefused
				}
			case !m.acquire(key, act, target):
				return res, CodeLockRefused
			}
		}
		for _, p := range op.Pairs {
			s := m.states[p.UID]
			if s == nil {
				return res, m.unknown(p.UID)
			}
			m.snapState(act, p.UID)
			for _, host := range p.Hosts {
				s.nodes = removeAll(s.nodes, host)
			}
		}
		return res, ""
	case OpEndAction:
		m.end(act, op.Commit)
		return res, ""
	}
	panic(fmt.Sprintf("model: op kind %d", op.Kind))
}

func (m *dbModel) inUse(id uid.UID) bool {
	for _, n := range m.servers[id].use {
		if n > 0 {
			return true
		}
	}
	return false
}

func (m *dbModel) end(act string, commit bool) {
	p := m.pending[act]
	delete(m.pending, act)
	for _, owners := range m.locks {
		delete(owners, act)
	}
	if p == nil {
		return
	}
	if commit {
		for id := range p.servers {
			if e := m.servers[id]; e != nil {
				m.committedServers[id] = e.clone()
			} else {
				delete(m.committedServers, id)
			}
		}
		for _, d := range p.deltas {
			if _, written := p.servers[d.id]; written || m.committedServers[d.id] == nil {
				continue
			}
			c := m.committedServers[d.id]
			if n := c.use[d.key] + d.n; n > 0 {
				c.use[d.key] = n
			} else {
				delete(c.use, d.key)
			}
		}
		for id, pre := range p.states {
			if s := m.states[id]; s != nil {
				m.committedStates[id] = s.clone()
				delete(m.forwards, id)
			} else {
				delete(m.committedStates, id)
				if to := p.movedTo[id]; pre != nil && to != "" {
					m.forwards[id] = to
				}
			}
		}
		return
	}
	for id, pre := range p.servers {
		if pre == nil {
			delete(m.servers, id)
		} else {
			m.servers[id] = pre
		}
	}
	for id, pre := range p.states {
		if pre == nil {
			delete(m.states, id)
		} else {
			m.states[id] = pre
		}
	}
	for i := len(p.deltas) - 1; i >= 0; i-- {
		d := p.deltas[i]
		if e := m.servers[d.id]; e != nil {
			if n := e.use[d.key] - d.n; n > 0 {
				e.use[d.key] = n
			} else {
				delete(e.use, d.key)
			}
		}
	}
}

// batch runs one message: ops in order, each under its named action or
// the message's own, up to the first failure; the own action ends with
// the message.
func (m *dbModel) batch(ops []Op) ([]OpResult, string) {
	const own = "own"
	results := make([]OpResult, len(ops))
	for i := range ops {
		act := ops[i].Action
		if act == "" {
			act = own
		}
		var code string
		if results[i], code = m.exec(act, &ops[i]); code != "" {
			m.end(own, false)
			return nil, code
		}
	}
	m.end(own, true)
	return results, ""
}

// crash drops every action and lock; what is left is the committed state.
func (m *dbModel) crash() {
	m.servers, m.states = map[uid.UID]*mServer{}, map[uid.UID]*mState{}
	for id, e := range m.committedServers {
		m.servers[id] = e.clone()
	}
	for id, s := range m.committedStates {
		m.states[id] = s.clone()
	}
	m.locks, m.pending = map[string]map[string]*[lockmgr.Write + 1]int{}, map[string]*mPending{}
}

// --- the generator ---

var (
	modelIDs     = []uid.UID{{Origin: "obj", Epoch: 1, Seq: 1}, {Origin: "obj", Epoch: 1, Seq: 2}, {Origin: "obj", Epoch: 1, Seq: 3}}
	modelServers = []transport.Addr{"sv1", "sv2", "sv3"}
	modelStores  = []transport.Addr{"st1", "st2", "st3"}
	modelClients = []transport.Addr{"c1", "c2"}
	modelActions = []string{"a", "b", "c"}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// someOf returns 0 to len(from) members of from, in a random order.
func someOf[T any](rng *rand.Rand, from []T) []T {
	out := slices.Clone(from)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:rng.Intn(len(out)+1)]
}

// randomOp draws one op, under a named action or (own) the message's own.
func randomOp(rng *rand.Rand, own bool) Op {
	act, id := pick(rng, modelActions), pick(rng, modelIDs)
	var op Op
	switch k := rng.Intn(24); {
	case k < 2:
		op = RegisterOp(act, id, "counter", someOf(rng, modelServers), someOf(rng, modelStores))
	case k < 3:
		op = DeregisterOp(act, id, transport.Addr("db-"+act))
	case k < 5:
		op = GetServerOp(act, id, rng.Intn(2) == 0, rng.Intn(3) == 0)
	case k < 6:
		op = InsertOp(act, id, pick(rng, modelServers))
	case k < 7:
		op = RemoveOp(act, id, pick(rng, modelServers))
		rng.Intn(2) // unused, so that the corpus seeds draw the sequences they were added for
	case k < 9:
		op = IncrementOp(act, id, pick(rng, modelClients), someOf(rng, modelServers))
	case k < 11:
		op = DecrementOp(act, id, pick(rng, modelClients), someOf(rng, modelServers))
	case k < 13:
		op = GetViewOp(act, id)
	case k < 14:
		op = IncludeOp(act, id, pick(rng, modelStores))
	case k < 15:
		pairs := []ExcludePair{{UID: id, Hosts: someOf(rng, modelStores)}}
		if rng.Intn(3) == 0 {
			pairs = append(pairs, ExcludePair{UID: pick(rng, modelIDs), Hosts: someOf(rng, modelStores)})
		}
		op = ExcludeOp(act, pairs, rng.Intn(4) == 0)
	case k < 18:
		op = BindOp(act, id, pick(rng, modelClients), rng.Intn(3), rng.Intn(3) == 0)
	case k < 19:
		op = SelectOp(act, id)
	default:
		return EndActionOp(act, rng.Intn(4) != 0)
	}
	if own {
		op.Action = ""
	}
	return op
}

// actionEnd draws the message that ends an action of several objects at a
// database: the action's EndAction, then each object's Decrement as the
// message's own action — one of them, perhaps, for an object deregistered
// since it was counted.
func actionEnd(rng *rand.Rand) []Op {
	ops := []Op{EndActionOp(pick(rng, modelActions), rng.Intn(4) != 0)}
	ids, client := someOf(rng, modelIDs), pick(rng, modelClients)
	if len(ids) == 0 {
		ids = modelIDs[:1]
	}
	for _, id := range ids {
		ops = append(ops, DecrementOp("", id, client, someOf(rng, modelServers)))
	}
	return ops
}

// repair draws the message of a binding's repair: its Decrement, when it
// was counted, and a Repair that counts it at now, servers none of the dead
// ones — the message's own action, or now and then a named one.
func repair(rng *rand.Rand) []Op {
	id, client := pick(rng, modelIDs), pick(rng, modelClients)
	var ops []Op
	if rng.Intn(2) == 0 {
		ops = append(ops, DecrementOp("", id, client, someOf(rng, modelServers)))
	}
	dead := someOf(rng, modelServers)
	now := someOf(rng, slices.DeleteFunc(slices.Clone(modelServers), func(sv transport.Addr) bool { return slices.Contains(dead, sv) }))
	ops = append(ops, RepairOp("", id, client, now, dead))
	if rng.Intn(4) == 0 {
		act := pick(rng, modelActions)
		for i := range ops {
			ops[i].Action = act
		}
	}
	return ops
}

// opString renders an op in a failure's history: kind, owner and the
// arguments the kind takes.
func opString(op Op) string {
	act := op.Action
	if act == "" {
		act = "own"
	}
	args := []string{act}
	if op.Kind != OpExclude && op.Kind != OpEndAction {
		args = append(args, op.UID.String())
	}
	for _, a := range []struct {
		set  bool
		text string
	}{
		{op.Host != "", string(op.Host)},
		{len(op.Hosts) > 0, fmt.Sprint(op.Hosts)},
		{len(op.Stores) > 0, fmt.Sprint(op.Stores)},
		{len(op.Pairs) > 0, fmt.Sprint(op.Pairs)},
		{op.Kind == OpBind, fmt.Sprintf("degree %d", op.Degree)},
		{op.WantUse, "use"},
		{op.ForUpdate, "update"},
		{op.UseWriteLock, "write-lock"},
		{op.Kind == OpEndAction, map[bool]string{true: "commit", false: "abort"}[op.Commit]},
	} {
		if a.set {
			args = append(args, a.text)
		}
	}
	return opNames[op.Kind] + "(" + strings.Join(args, " ") + ")"
}

// --- the comparison ---

type modelEntry struct {
	nodes []transport.Addr
	use   map[useKey]int
	class string
}

func (e modelEntry) String() string {
	keys := slices.SortedFunc(maps.Keys(e.use), func(a, b useKey) int {
		return strings.Compare(string(a.host)+"/"+string(a.client), string(b.host)+"/"+string(b.client))
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%v%s", e.nodes, e.class)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s/%s=%d", k.host, k.client, e.use[k])
	}
	return b.String()
}

func sameEntry(a, b modelEntry) bool {
	return slices.Equal(a.nodes, b.nodes) && a.class == b.class && maps.Equal(a.use, b.use)
}

func positive(use map[useKey]int) map[useKey]int {
	out := map[useKey]int{}
	for k, n := range use {
		if n > 0 {
			out[k] = n
		}
	}
	return out
}

func realServerEntries(servers map[uid.UID]*serverEntry) map[uid.UID]modelEntry {
	out := map[uid.UID]modelEntry{}
	for id, e := range servers {
		use := map[useKey]int{}
		for host, clients := range e.Use {
			for c, n := range clients {
				if n > 0 {
					use[useKey{host, c}] = n
				}
			}
		}
		out[id] = modelEntry{nodes: e.Nodes, use: use}
	}
	return out
}

func realStateEntries(states map[uid.UID]*stateEntry) map[uid.UID]modelEntry {
	out := map[uid.UID]modelEntry{}
	for id, s := range states {
		out[id] = modelEntry{nodes: s.Nodes, class: s.Class}
	}
	return out
}

func modelServerEntries(servers map[uid.UID]*mServer) map[uid.UID]modelEntry {
	out := map[uid.UID]modelEntry{}
	for id, e := range servers {
		out[id] = modelEntry{nodes: e.nodes, use: positive(e.use)}
	}
	return out
}

func modelStateEntries(states map[uid.UID]*mState) map[uid.UID]modelEntry {
	out := map[uid.UID]modelEntry{}
	for id, s := range states {
		out[id] = modelEntry{nodes: s.nodes, class: s.class}
	}
	return out
}

// diffEntries names the first entry two states disagree on.
func diffEntries(what string, got, want map[uid.UID]modelEntry) error {
	for _, id := range modelIDs {
		g, gok := got[id]
		w, wok := want[id]
		if gok != wok || (gok && !sameEntry(g, w)) {
			return fmt.Errorf("%s %v: database has %v (present %v), model %v (present %v)", what, id, g, gok, w, wok)
		}
	}
	return nil
}

func sameResult(a, b OpResult) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Hosts, b.Hosts) && a.Class == b.Class &&
		maps.EqualFunc(a.Use, b.Use, maps.Equal)
}

// compare checks the database against the model: its live entries, its
// lock table and its durable records.
func compare(db *DB, m *dbModel) error {
	db.mu.Lock()
	liveSv, liveSt := realServerEntries(db.servers), realStateEntries(db.states)
	db.mu.Unlock()
	if err := diffEntries("live Sv", liveSv, modelServerEntries(m.servers)); err != nil {
		return err
	}
	if err := diffEntries("live St", liveSt, modelStateEntries(m.states)); err != nil {
		return err
	}
	for _, id := range modelIDs {
		for _, key := range []string{svKey(id), stKey(id)} {
			var got []string
			for _, h := range db.locks.HolderModes(key) {
				got = append(got, string(h.Owner)+":"+h.Mode.String())
			}
			if want := m.holders(key); !slices.Equal(got, want) {
				return fmt.Errorf("holders of %s: database %v, model %v", key, got, want)
			}
		}
		if got, want := db.Quiescent(id), m.servers[id] == nil || !m.inUse(id); got != want {
			return fmt.Errorf("Quiescent(%v): database %v, model %v", id, got, want)
		}
	}
	// A message's own action ends with its message: none is left in the
	// action tables or the lock table.
	db.mu.Lock()
	leftover := slices.Concat(slices.Collect(maps.Keys(db.pending)), slices.Collect(maps.Keys(db.clients)))
	db.mu.Unlock()
	for _, act := range leftover {
		if strings.HasPrefix(act, ownActionPrefix) {
			return fmt.Errorf("own action %s left in the action tables", act)
		}
	}
	for _, id := range modelIDs {
		for _, key := range []string{svKey(id), stKey(id)} {
			for _, h := range db.locks.HolderModes(key) {
				if strings.HasPrefix(string(h.Owner), ownActionPrefix) {
					return fmt.Errorf("own action %s left holding %s", h.Owner, key)
				}
			}
		}
	}
	db.mu.Lock()
	forwards := maps.Clone(db.forwards)
	db.mu.Unlock()
	if !maps.Equal(forwards, m.forwards) {
		return fmt.Errorf("forwards: database %v, model %v", forwards, m.forwards)
	}
	// What a recovering database would load: the durable records.
	durable := &DB{node: db.node}
	durable.resetVolatileLocked()
	durable.loadRecordsLocked()
	if err := diffEntries("durable Sv", realServerEntries(durable.servers), modelServerEntries(m.committedServers)); err != nil {
		return err
	}
	if !maps.Equal(durable.forwards, m.forwards) {
		return fmt.Errorf("durable forwards: database %v, model %v", durable.forwards, m.forwards)
	}
	return diffEntries("durable St", realStateEntries(durable.states), modelStateEntries(m.committedStates))
}

// runDBModel drives a fresh database and the model with the op sequence
// seed draws: steps messages of one to three ops — or an action-end of one
// to three Decrements — a few of them crashes of the database's node, and
// now and then a repair besides. It compares every reply and, after every
// message, the whole state, and returns how the repairs went: a count per
// shape (alone, or after a Decrement) and answer ("granted", or the code).
func runDBModel(t *testing.T, seed int64, steps int) map[string]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cluster := sim.NewCluster(transport.MemOptions{})
	node := cluster.Add("db")
	db := NewDB(node)
	m := newDBModel()
	// A done context turns every lock the database would wait for into a
	// refusal, which is what the model says of it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Action-ends and repairs are drawn from generators of their own, so that
	// a seed's other messages are the ones it drew before they were added.
	ends := rand.New(rand.NewSource(^seed))
	repairs := rand.New(rand.NewSource(seed ^ 0x5eed))
	var history []string
	fail := func(step int, err error) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %v\nthe last steps:\n  %s\nreplay: go test ./internal/core -run TestDBAgainstModel -db-model-seed=%d",
			seed, step, err, strings.Join(history[max(0, len(history)-30):], "\n  "), seed)
	}
	tally := map[string]int{}
	send := func(step int, ops []Op) {
		t.Helper()
		line := make([]string, len(ops))
		for i, op := range ops {
			line[i] = opString(op)
		}
		history = append(history, strings.Join(line, ", "))
		resp, err := db.batch(ctx, "c1", BatchReq{Ops: slices.Clone(ops)})
		got := resp.Results
		want, code := m.batch(ops)
		answer := rpc.CodeOf(err)
		if to := MovedTo(err); to != "" {
			answer += movedToSep + string(to)
		}
		if answer != code || (err != nil) != (code != "") {
			fail(step, fmt.Errorf("reply: database %v, model %q", err, code))
		}
		for i := range want {
			if !sameResult(got[i], want[i]) {
				fail(step, fmt.Errorf("op %d (%+v): database answered %+v, model %+v", i, ops[i], got[i], want[i]))
			}
		}
		if ops[len(ops)-1].Kind == OpRepair {
			shape := map[bool]string{true: "after a Decrement", false: "alone"}[len(ops) > 1]
			tally[shape+", "+cmp.Or(code, "granted")]++
		}
		if err := compare(db, m); err != nil {
			fail(step, err)
		}
	}
	for step := 0; step < steps; step++ {
		if rng.Intn(50) == 0 {
			history = append(history, "crash")
			node.Crash()
			node.Recover(nil)
			m.crash()
			if err := compare(db, m); err != nil {
				fail(step, err)
			}
		} else if ends.Intn(8) == 0 {
			send(step, actionEnd(ends))
		} else {
			ownMsg := rng.Intn(3) == 0
			ops := make([]Op, 1+rng.Intn(3))
			for i := range ops {
				ops[i] = randomOp(rng, ownMsg && rng.Intn(4) != 0)
			}
			send(step, ops)
		}
		if repairs.Intn(6) == 0 {
			send(step, repair(repairs))
		}
	}
	if got, want := db.Objects(), slices.SortedFunc(maps.Keys(m.states), func(a, b uid.UID) int {
		return strings.Compare(a.String(), b.String())
	}); !slices.Equal(got, want) {
		t.Fatalf("seed %d: Objects() = %v, model %v", seed, got, want)
	}
	return tally
}

// TestDBAgainstModel runs the database beside its reference model on fixed
// seeds (or the one -db-model-seed names) and requires the two to agree on
// every reply and every state in between. Over the fixed seeds a Repair is
// both granted and refused, alone and after a Decrement.
func TestDBAgainstModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if *dbModelSeed != 0 {
		seeds = []int64{*dbModelSeed}
	}
	tally := map[string]int{}
	for _, seed := range seeds {
		for k, n := range runDBModel(t, seed, 3000) {
			tally[k] += n
		}
	}
	if *dbModelSeed != 0 {
		return
	}
	for _, shape := range []string{"alone", "after a Decrement"} {
		for _, answer := range []string{"granted", CodeNotQuiescent} {
			if tally[shape+", "+answer] == 0 {
				t.Errorf("no Repair %s was answered %s: %v", shape, answer, tally)
			}
		}
	}
	t.Logf("repairs: %v", tally)
}

// FuzzDBAgainstModel lets the fuzzer choose the seeds; the corpus under
// testdata/fuzz/FuzzDBAgainstModel runs as a regression test. Its
// register-after-adjust is the first sequence the model failed the
// database on: an action re-registered an object it had adjusted, and the
// in-flight sum the database then subtracted from every later record of
// the entry counted a binding that was never made. Its
// action-end-deregistered is a seed whose first action-end decrements an
// object deregistered before it, beside others: the database once failed
// that Decrement and, with it, the message's own action, undoing the other
// objects' Decrements.
func FuzzDBAgainstModel(f *testing.F) {
	f.Add(int64(11))
	f.Fuzz(func(t *testing.T, seed int64) { runDBModel(t, seed, 300) })
}
