// Package cluster implements the sharded, replicated deployment mode of
// shapleyd: a consistent-hash ring assigning database ids to replicated
// worker shards, a health-probing, failing-over HTTP router in front of
// them, and the portable snapshot encoding workers use to warm
// up new or recovered replicas without recomputing DP-trees.
//
// The package deliberately does not import internal/server: the router
// speaks to workers over their public HTTP API and relays worker answer
// bodies verbatim (bit-identical responses are an acceptance criterion,
// so re-encoding is off the table). internal/server imports this package
// for the snapshot wire format behind its GET/PUT snapshot endpoints.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/db"
)

// ErrBadSnapshot reports a snapshot body that does not decode: truncated,
// corrupted, or not produced by a compatible encoder.
var ErrBadSnapshot = errors.New("cluster: malformed snapshot")

// snapshotMagic versions the wire format; bump the trailing byte on any
// incompatible change so a mixed-version fleet fails fast instead of
// mis-decoding.
const snapshotMagic = "shsnap\x00\x01"

// Snapshot is the portable warm-up state of one registered database: its
// text, the version it serves, and the exported memo snapshots of its
// prepared plans. The database text is carried once and stamped into
// every plan on decode (all plans of one version are prepared over the
// same database).
type Snapshot struct {
	ID      string
	Version db.Version
	DBText  string
	Plans   []PlanEntry
}

// PlanEntry is one prepared plan's snapshot, minus the database text the
// envelope carries once.
type PlanEntry struct {
	Query string
	IsUCQ bool
	Exo   []string
	Brute bool
	Root  *core.NodeSnapshot
}

// SnapshotOf assembles the envelope from per-plan snapshots, lifting the
// shared database text out of each. Plans whose DBText disagrees with
// dbText (an Export racing a PATCH) are skipped — a warm-up snapshot must
// never mix versions.
func SnapshotOf(id string, version db.Version, dbText string, plans []*core.PlanSnapshot) *Snapshot {
	s := &Snapshot{ID: id, Version: version, DBText: dbText}
	for _, ps := range plans {
		if ps == nil || ps.DBText != dbText {
			continue
		}
		s.Plans = append(s.Plans, PlanEntry{
			Query: ps.Query,
			IsUCQ: ps.IsUCQ,
			Exo:   append([]string(nil), ps.Exo...),
			Brute: ps.Brute,
			Root:  ps.Root,
		})
	}
	return s
}

// PlanSnapshots expands the envelope back to self-contained per-plan
// snapshots, stamping the shared database text into each.
func (s *Snapshot) PlanSnapshots() []*core.PlanSnapshot {
	out := make([]*core.PlanSnapshot, len(s.Plans))
	for i, pe := range s.Plans {
		out[i] = &core.PlanSnapshot{
			Query:  pe.Query,
			IsUCQ:  pe.IsUCQ,
			Exo:    append([]string(nil), pe.Exo...),
			Brute:  pe.Brute,
			DBText: s.DBText,
			Root:   pe.Root,
		}
	}
	return out
}

// EncodeSnapshot renders the envelope in the binary wire format: a magic
// header, then varint-framed strings and byte blobs. Numeric vectors ride
// as per-coefficient big-endian magnitudes (counts are non-negative, so
// no sign byte), exactly the core.NodeSnapshot representation.
func EncodeSnapshot(s *Snapshot) []byte {
	b := []byte(snapshotMagic)
	b = appendString(b, s.ID)
	b = binary.AppendUvarint(b, uint64(s.Version))
	b = appendString(b, s.DBText)
	b = binary.AppendUvarint(b, uint64(len(s.Plans)))
	for _, pe := range s.Plans {
		b = appendString(b, pe.Query)
		b = appendBool(b, pe.IsUCQ)
		b = binary.AppendUvarint(b, uint64(len(pe.Exo)))
		for _, r := range pe.Exo {
			b = appendString(b, r)
		}
		b = appendBool(b, pe.Brute)
		b = appendBool(b, pe.Root != nil)
		if pe.Root != nil {
			b = appendNode(b, pe.Root)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendVec(b []byte, coeffs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(coeffs)))
	for _, c := range coeffs {
		b = binary.AppendUvarint(b, uint64(len(c)))
		b = append(b, c...)
	}
	return b
}

func appendNode(b []byte, n *core.NodeSnapshot) []byte {
	b = append(b, n.Kind)
	b = binary.AppendUvarint(b, uint64(n.RelN))
	b = binary.AppendUvarint(b, uint64(n.Free))
	b = appendVec(b, n.Core)
	b = appendVec(b, n.Sat)
	b = appendVec(b, n.NonSat)
	b = appendVec(b, n.Prod)
	b = binary.AppendUvarint(b, uint64(len(n.Children)))
	for _, c := range n.Children {
		b = appendNode(b, c)
	}
	return b
}

// snapReader is the decode cursor. Every length it reads is validated
// against the remaining input before allocating, so a corrupted count
// fails with ErrBadSnapshot instead of an enormous allocation.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrBadSnapshot, r.off)
	}
	r.off += n
	return v, nil
}

// count reads a varint element count for elements of at least minBytes
// encoded bytes each, rejecting counts the remaining input cannot hold.
func (r *snapReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining input at offset %d", ErrBadSnapshot, v, r.off)
	}
	return int(v), nil
}

func (r *snapReader) blob() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: blob length %d exceeds remaining input at offset %d", ErrBadSnapshot, n, r.off)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+int(n)])
	r.off += int(n)
	return out, nil
}

func (r *snapReader) str() (string, error) {
	b, err := r.blob()
	return string(b), err
}

func (r *snapReader) boolean() (bool, error) {
	if r.remaining() < 1 {
		return false, fmt.Errorf("%w: truncated at offset %d", ErrBadSnapshot, r.off)
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		return false, fmt.Errorf("%w: invalid bool byte %d at offset %d", ErrBadSnapshot, v, r.off-1)
	}
	return v == 1, nil
}

func (r *snapReader) vec() ([][]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([][]byte, n)
	for i := range out {
		if out[i], err = r.blob(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *snapReader) node() (*core.NodeSnapshot, error) {
	if r.remaining() < 1 {
		return nil, fmt.Errorf("%w: truncated node at offset %d", ErrBadSnapshot, r.off)
	}
	n := &core.NodeSnapshot{Kind: r.b[r.off]}
	r.off++
	relN, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	free, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n.RelN, n.Free = int(relN), int(free)
	if n.Core, err = r.vec(); err != nil {
		return nil, err
	}
	if n.Sat, err = r.vec(); err != nil {
		return nil, err
	}
	if n.NonSat, err = r.vec(); err != nil {
		return nil, err
	}
	if n.Prod, err = r.vec(); err != nil {
		return nil, err
	}
	kids, err := r.count(1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < kids; i++ {
		c, err := r.node()
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// DecodeSnapshot parses the wire format produced by EncodeSnapshot.
// Structural well-formedness is all it checks; semantic validation (does
// the tree match the replayed build?) happens in core's ImportPlan.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic header", ErrBadSnapshot)
	}
	r := &snapReader{b: data, off: len(snapshotMagic)}
	s := &Snapshot{}
	var err error
	if s.ID, err = r.str(); err != nil {
		return nil, err
	}
	v, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	s.Version = db.Version(v)
	if s.DBText, err = r.str(); err != nil {
		return nil, err
	}
	nPlans, err := r.count(1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPlans; i++ {
		var pe PlanEntry
		if pe.Query, err = r.str(); err != nil {
			return nil, err
		}
		if pe.IsUCQ, err = r.boolean(); err != nil {
			return nil, err
		}
		nExo, err := r.count(1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nExo; j++ {
			rel, err := r.str()
			if err != nil {
				return nil, err
			}
			pe.Exo = append(pe.Exo, rel)
		}
		if pe.Brute, err = r.boolean(); err != nil {
			return nil, err
		}
		hasRoot, err := r.boolean()
		if err != nil {
			return nil, err
		}
		if hasRoot {
			if pe.Root, err = r.node(); err != nil {
				return nil, err
			}
		}
		s.Plans = append(s.Plans, pe)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.remaining())
	}
	return s, nil
}
