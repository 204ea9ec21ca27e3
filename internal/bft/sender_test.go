package bft

import (
	"reflect"
	"testing"
)

// voteAs writes id into a vote's self-declared voter field, if its type has
// one. No vote names its voter, so here this does nothing and a vote counts
// under the sender Handle was given; on a tree whose Prepare, Commit and
// ViewChange still carry Replica, the same tests drive the forgeries that
// field allowed.
func voteAs[T any](vote T, id ReplicaID) T {
	if f := reflect.ValueOf(&vote).Elem().FieldByName("Replica"); f.IsValid() {
		f.SetUint(uint64(id))
	}
	return vote
}

// TestVotesCountUnderSender: the primary of view 0 sends replica 2 a
// pre-prepare and then, itself, the prepares and commits of replicas 3 and
// 4. One sender is one vote whatever names it uses: with its own prepare
// that makes two of the three a quorum takes, so the slot may not prepare,
// commit or deliver.
func TestVotesCountUnderSender(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 0)
	victim := c.replicas[2]
	payload := []byte("forged-quorum")
	d := digestOf(payload)
	victim.Handle(1, PrePrepare{View: 0, Seq: 1, Digest: d, Payload: payload})
	for _, name := range []ReplicaID{3, 4} {
		victim.Handle(1, voteAs(Prepare{View: 0, Seq: 1, Digest: d}, name))
	}
	for _, name := range []ReplicaID{3, 4} {
		victim.Handle(1, voteAs(Commit{View: 0, Seq: 1, Digest: d}, name))
	}
	s := victim.slots[1]
	if s.prepared || s.committed || len(c.delivered[2]) != 0 {
		t.Fatalf("one sender's votes made a quorum: prepares=%d commits=%d prepared=%v committed=%v delivered=%d",
			len(s.prepares), len(s.commits), s.prepared, s.committed, len(c.delivered[2]))
	}
	// The honest votes still complete the slot.
	for _, from := range []ReplicaID{3, 4} {
		victim.Handle(from, Prepare{View: 0, Seq: 1, Digest: d})
		victim.Handle(from, Commit{View: 0, Seq: 1, Digest: d})
	}
	if len(c.delivered[2]) != 1 {
		t.Fatalf("delivered %d payloads after an honest quorum voted, want 1", len(c.delivered[2]))
	}
}

// TestOneReplicaCannotForceViewChange: replica 1 alone sends view-change
// votes for view 1 under three names. 2f+1 of them must not make replica 2,
// the primary of view 1, take over, and f+1 of them must not make a backup
// join the view change.
func TestOneReplicaCannotForceViewChange(t *testing.T) {
	c := newCluster(t, ModeByzantine, 4, 0)
	next, backup := c.replicas[2], c.replicas[3]
	for _, name := range []ReplicaID{1, 3, 4} {
		next.Handle(1, voteAs(ViewChange{NewView: 1}, name))
	}
	if next.View() != 0 || next.viewChanges[1][2] != nil {
		t.Errorf("one sender's 2f+1 view-change votes moved replica 2: view=%d votes=%d joined=%v",
			next.View(), len(next.viewChanges[1]), next.viewChanges[1][2] != nil)
	}
	for _, name := range []ReplicaID{1, 4} {
		backup.Handle(1, voteAs(ViewChange{NewView: 1}, name))
	}
	if backup.viewChanges[1][3] != nil {
		t.Errorf("one sender's f+1 view-change votes made replica 3 join: votes=%d", len(backup.viewChanges[1]))
	}
	if t.Failed() {
		return
	}
	// f+1 senders do make it join, and 2f+1 make replica 2 take over.
	backup.Handle(4, ViewChange{NewView: 1})
	if backup.viewChanges[1][3] == nil {
		t.Fatal("replica 3 did not join a view change f+1 replicas voted for")
	}
	c.pump()
	if next.View() != 1 {
		t.Fatalf("replica 2 at view %d after a quorum of senders voted for view 1", next.View())
	}
}
