// Package cluster implements the sharded, replicated deployment mode of
// shapleyd: a consistent-hash ring assigning database ids to replicated
// worker shards, a health-probing, failing-over HTTP router in front of
// them, and the portable snapshot encoding workers use to warm up new or
// recovered replicas. A snapshot carries a database and the keys of its
// cached plans; the receiving worker re-prepares those plans before it
// publishes the database, because a plan is a pure function of the
// database and its key.
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

	"repro/internal/db"
)

// ErrBadSnapshot reports a snapshot body that does not decode: truncated,
// corrupted, or not produced by a compatible encoder.
var ErrBadSnapshot = errors.New("cluster: malformed snapshot")

// snapshotMagic versions the wire format; bump the trailing byte on any
// incompatible change so a mixed-version fleet fails fast instead of
// mis-decoding. Version 1 carried DP-tree payloads; version 2 carries
// plan keys only.
const snapshotMagic = "shsnap\x00\x02"

// Snapshot is the portable warm-up state of one registered database: its
// text, the version it serves, and the key of every cached plan that
// answers for that version.
type Snapshot struct {
	ID      string
	Version db.Version
	DBText  string
	Plans   []PlanKey
}

// PlanKey identifies one prepared plan of a database: the canonical query
// text, the exogenous relation declarations and the brute-force flag.
// Whether the query is a union is decided by parsing it.
type PlanKey struct {
	Query string
	Exo   []string
	Brute bool
}

// EncodeSnapshot renders the envelope in the binary wire format: the
// magic header, then varint-framed strings and counts.
func EncodeSnapshot(s *Snapshot) []byte {
	b := []byte(snapshotMagic)
	b = appendString(b, s.ID)
	b = binary.AppendUvarint(b, uint64(s.Version))
	b = appendString(b, s.DBText)
	b = binary.AppendUvarint(b, uint64(len(s.Plans)))
	for _, pk := range s.Plans {
		b = appendString(b, pk.Query)
		b = binary.AppendUvarint(b, uint64(len(pk.Exo)))
		for _, r := range pk.Exo {
			b = appendString(b, r)
		}
		if pk.Brute {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
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
// encoded bytes each, rejecting counts that the remaining input, less
// the reserved bytes that later fields need, cannot hold.
func (r *snapReader) count(minBytes, reserved int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if avail := r.remaining() - reserved; avail < 0 || v > uint64(avail/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining input at offset %d", ErrBadSnapshot, v, r.off)
	}
	return int(v), nil
}

func (r *snapReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("%w: string length %d exceeds remaining input at offset %d", ErrBadSnapshot, n, r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *snapReader) boolean() (bool, error) {
	if r.remaining() < 1 {
		return false, fmt.Errorf("%w: truncated at offset %d", ErrBadSnapshot, r.off)
	}
	v := r.b[r.off]
	if v > 1 {
		return false, fmt.Errorf("%w: invalid bool byte %d at offset %d", ErrBadSnapshot, v, r.off)
	}
	r.off++
	return v == 1, nil
}

// DecodeSnapshot parses the wire format produced by EncodeSnapshot.
// Structural well-formedness is all it checks; the importing worker
// rejects a database text or plan key it cannot parse. It reads the input
// in one forward pass without recursion, and its allocations are bounded
// by a small multiple of len(data).
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
	// A plan key encodes to at least planKeyMin bytes: the query length,
	// the exo count and the brute flag. Counts are checked against the
	// bytes that the plans still to come need, so the slices allocated
	// here never outgrow the input that backs them.
	const planKeyMin = 3
	nPlans, err := r.count(planKeyMin, 0)
	if err != nil {
		return nil, err
	}
	if nPlans > 0 {
		s.Plans = make([]PlanKey, nPlans)
	}
	for i := range s.Plans {
		pk := &s.Plans[i]
		if pk.Query, err = r.str(); err != nil {
			return nil, err
		}
		nExo, err := r.count(1, 1+planKeyMin*(nPlans-i-1))
		if err != nil {
			return nil, err
		}
		if nExo > 0 {
			pk.Exo = make([]string, nExo)
		}
		for j := range pk.Exo {
			if pk.Exo[j], err = r.str(); err != nil {
				return nil, err
			}
		}
		if pk.Brute, err = r.boolean(); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, r.remaining())
	}
	return s, nil
}
