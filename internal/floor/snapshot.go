package floor

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"dmps/internal/group"
)

// Snapshot is one group's whole floor state: everything the controller
// keeps for it. It is the one form the state takes when it leaves the
// controller — a catch-up snapshot reads it, and the journal, replica
// forwards and partition packages carry its encoding (AppendBinary) as
// opaque bytes. Its sets are sorted and its contacts ordered by member,
// so equal states compare and encode equal.
type Snapshot struct {
	Mode   Mode
	Holder group.MemberID
	// Queue holds the pending requests in order.
	Queue []group.MemberID
	// Approved lists the queued members the chair has cleared
	// (ModeratedQueue).
	Approved []group.MemberID
	// Contacts lists the open Direct Contact windows.
	Contacts []Contact
	// Suspended lists the members whose media are suspended.
	Suspended []group.MemberID
	// Pinned is the chair-pinned policy flag.
	Pinned bool
}

// Contact is one Direct Contact link: Member's private window is with
// Peer.
type Contact struct{ Member, Peer group.MemberID }

// Snapshot returns the group's floor state from one lock acquisition,
// so it never pairs a holder from before a concurrent arbitration with
// a queue from after it.
func (c *Controller) Snapshot(groupID string) Snapshot {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := &fs.st
	s := Snapshot{
		Mode: st.Mode, Holder: st.Holder, Queue: append([]group.MemberID(nil), st.Queue...),
		Approved: sortedSet(st.Approved), Suspended: sortedSet(fs.suspended), Pinned: fs.pinned,
	}
	for m, p := range st.Contacts {
		s.Contacts = append(s.Contacts, Contact{m, p})
	}
	slices.SortFunc(s.Contacts, func(a, b Contact) int { return cmp.Compare(a.Member, b.Member) })
	return s
}

// Restore installs a group's whole floor state — Snapshot's inverse,
// and how a floor lands wherever it moves: WAL replay, failover
// adoption, migration. Arbitration resumes where the snapshot left it:
// the holder keeps the floor, the queue its order, the chair's
// approvals and the open Direct Contact windows stay as they were.
func (c *Controller) Restore(groupID string, s Snapshot) {
	fs := c.state(groupID)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.st.Mode, fs.st.Holder, fs.pinned = s.Mode, s.Holder, s.Pinned
	fs.st.Queue = append([]group.MemberID(nil), s.Queue...)
	fs.st.Approved, fs.suspended = setOf(s.Approved), setOf(s.Suspended)
	fs.st.Contacts = make(map[group.MemberID]group.MemberID, len(s.Contacts))
	for _, ct := range s.Contacts {
		fs.st.Contacts[ct.Member] = ct.Peer
	}
}

// sortedSet lists a set's members in order (nil when empty).
func sortedSet(set map[group.MemberID]bool) []group.MemberID {
	var out []group.MemberID
	for m, on := range set {
		if on {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

func setOf(ids []group.MemberID) map[group.MemberID]bool {
	set := make(map[group.MemberID]bool, len(ids))
	for _, m := range ids {
		set[m] = true
	}
	return set
}

// AppendBinary appends the snapshot's encoding to b: lp Mode (its
// name), lp Holder, a Pinned byte (1 or 0), then counted Queue,
// Suspended and Approved (uvarint count, then that many lp-strings)
// and counted Contacts (uvarint count, then lp Member, lp Peer each).
// An lp-string is a uvarint length and the bytes.
func (s Snapshot) AppendBinary(b []byte) []byte {
	b = appendString(b, s.Mode.String())
	b = appendString(b, string(s.Holder))
	pinned := byte(0)
	if s.Pinned {
		pinned = 1
	}
	b = appendIDs(append(b, pinned), s.Queue)
	b = appendIDs(b, s.Suspended)
	b = appendIDs(b, s.Approved)
	b = binary.AppendUvarint(b, uint64(len(s.Contacts)))
	for _, ct := range s.Contacts {
		b = appendString(appendString(b, string(ct.Member)), string(ct.Peer))
	}
	return b
}

func appendIDs(b []byte, ids []group.MemberID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, m := range ids {
		b = appendString(b, string(m))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

var errSnapshot = errors.New("floor: malformed snapshot")

// DecodeSnapshot reads a snapshot AppendBinary encoded; data must hold
// exactly one. Bytes that are not one fail: a mode no policy is
// registered under, a length or count larger than the bytes left, a
// pin flag other than 0 or 1, a cut, or trailing bytes.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	d := decoder{data: data}
	name := d.string()
	mode, ok := ParseMode(name)
	s := Snapshot{Mode: mode, Holder: group.MemberID(d.string())}
	pinned := d.count()
	s.Pinned = pinned == 1
	s.Queue, s.Suspended, s.Approved = d.ids(), d.ids(), d.ids()
	if n := d.count(); n > 0 {
		s.Contacts = make([]Contact, n)
		for i := range s.Contacts {
			s.Contacts[i] = Contact{group.MemberID(d.string()), group.MemberID(d.string())}
		}
	}
	if d.bad || len(d.data) > 0 || !ok || mode.String() != name || pinned > 1 {
		return Snapshot{}, errSnapshot
	}
	return s, nil
}

// decoder reads a snapshot's fields off the front of data. After the
// first failure every read returns a zero value.
type decoder struct {
	data []byte
	bad  bool
}

// count reads a uvarint: a length or a count, which can never exceed
// the bytes left, since an item is at least one byte.
func (d *decoder) count() int {
	n, k := binary.Uvarint(d.data)
	if d.bad || k <= 0 || n > uint64(len(d.data)-k) {
		d.bad = true
		return 0
	}
	d.data = d.data[k:]
	return int(n)
}

func (d *decoder) string() string {
	n := d.count()
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *decoder) ids() []group.MemberID {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]group.MemberID, n)
	for i := range out {
		out[i] = group.MemberID(d.string())
	}
	return out
}
