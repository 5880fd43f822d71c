// Package uid provides unique identifiers for persistent objects and
// atomic actions.
//
// The paper (§2.2) assumes an Object Storage service that assigns unique
// identifiers (UIDs) to persistent objects; the naming and binding service
// maps user-given names to UIDs and UIDs to location information. Arjuna
// UIDs combined a host identifier, a timestamp and a sequence number; we
// keep the same three-part structure but derive the parts from a generator
// so that tests can be deterministic.
package uid

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// UID identifies a persistent object, an atomic action, or any other
// system entity that must be named uniquely across the (simulated)
// distributed system. The zero value is the nil UID.
type UID struct {
	// Origin identifies the generator (conventionally a node name) that
	// created the UID.
	Origin string
	// Epoch distinguishes successive incarnations of the same origin
	// (e.g. a node before and after a crash).
	Epoch uint32
	// Seq is a per-origin, per-epoch sequence number.
	Seq uint64
}

// Nil is the zero UID, used to mean "no object".
var Nil UID

// IsNil reports whether u is the nil UID.
func (u UID) IsNil() bool { return u == Nil }

// String renders the UID in the canonical "origin:epoch:seq" form.
func (u UID) String() string {
	var buf [48]byte // the usual UID fits, so the string is the one allocation
	return string(u.Append(buf[:0]))
}

// Append appends the UID's canonical form to dst.
func (u UID) Append(dst []byte) []byte {
	if u.IsNil() {
		return append(dst, "<nil-uid>"...)
	}
	dst = append(dst, u.Origin...)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, uint64(u.Epoch), 10)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, u.Seq, 10)
}

// Parse converts the canonical string form back into a UID.
func Parse(s string) (UID, error) {
	if s == "<nil-uid>" {
		return Nil, nil
	}
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Nil, fmt.Errorf("uid: malformed %q: missing seq separator", s)
	}
	j := strings.LastIndexByte(s[:i], ':')
	if j < 0 {
		return Nil, fmt.Errorf("uid: malformed %q: missing epoch separator", s)
	}
	epoch, err := strconv.ParseUint(s[j+1:i], 10, 32)
	if err != nil {
		return Nil, fmt.Errorf("uid: malformed epoch in %q: %w", s, err)
	}
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return Nil, fmt.Errorf("uid: malformed seq in %q: %w", s, err)
	}
	if s[:j] == "" {
		return Nil, fmt.Errorf("uid: malformed %q: empty origin", s)
	}
	return UID{Origin: s[:j], Epoch: uint32(epoch), Seq: seq}, nil
}

// Generator mints UIDs for one origin. It is safe for concurrent use.
// The zero value is usable but mints UIDs with an empty origin; use
// NewGenerator in normal code.
type Generator struct {
	origin string
	epoch  uint32
	seq    atomic.Uint64
}

// NewGenerator returns a generator whose UIDs carry the given origin and
// epoch (incarnation number).
func NewGenerator(origin string, epoch uint32) *Generator {
	return &Generator{origin: origin, epoch: epoch}
}

// New mints the next UID.
func (g *Generator) New() UID {
	return UID{Origin: g.origin, Epoch: g.epoch, Seq: g.seq.Add(1)}
}

// Origin returns the generator's origin name.
func (g *Generator) Origin() string { return g.origin }
