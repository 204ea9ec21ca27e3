package fabric_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cicero/internal/fabric"
)

// pinned is a record sequence whose hash the chaos engine's trace gave
// before the log replaced it: an empty detail, details containing the
// separator, times of zero and past an hour, and a digest, which the hash
// must not see.
var pinned = []fabric.Record{
	{T: 0, Kind: "boot"},
	{T: 1500 * time.Microsecond, Kind: "apply", Detail: "sw=d0|x update=a#1 phase=1 valid=true", Digest: "ab12"},
	{T: time.Hour + 2*time.Second + 7, Kind: "violation", Detail: "no-forged-rule: |||"},
	{T: 90 * time.Minute, Kind: "drain-nudge"},
}

const (
	pinnedHash = "086f55ee1f1f8547c7ad566e5fe810aa2f4a054b7bb9de8f5cd0615647b1865f"
	emptyHash  = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)

// TestLogHashPinned: the bytes each record folds into the hash never
// change, or every pinned campaign hash moves with them.
func TestLogHashPinned(t *testing.T) {
	l := fabric.NewLog(2, nil)
	if got := l.Hash(); got != emptyHash {
		t.Fatalf("empty log hash %s, want %s", got, emptyHash)
	}
	for _, r := range pinned {
		l.Add(r)
	}
	if got := l.Hash(); got != pinnedHash {
		t.Fatalf("hash %s, want %s", got, pinnedHash)
	}
	if got, want := l.Records(), pinned[2:]; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want the last two, %v", got, want)
	}
	if got, want := pinned[0].String(), "          0s  boot           "; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got, want := pinned[1].String(), "       1.5ms  apply          sw=d0|x update=a#1 phase=1 valid=true"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestLogConcurrentAdd adds from eight goroutines, as live backends do
// from their sender goroutines, and hands every record to out in sequence.
func TestLogConcurrentAdd(t *testing.T) {
	const writers, each = 8, 200
	var seqs []uint64
	l := fabric.NewLog(16, func(seq uint64, _ fabric.Record) { seqs = append(seqs, seq) })
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Add(fabric.Record{T: time.Duration(i), Kind: "send", Detail: fmt.Sprint(w)})
				l.Hash()
				l.Related("send", 4)
			}
		}()
	}
	wg.Wait()
	if len(l.Records()) != 16 || len(seqs) != writers*each {
		t.Fatalf("kept %d, handed out %d; want 16 and %d", len(l.Records()), len(seqs), writers*each)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("record %d handed out as seq %d", i+1, seq)
		}
	}
}

// TestLogRelated keeps the earliest and the latest matches.
func TestLogRelated(t *testing.T) {
	l := fabric.NewLog(100, nil)
	for i := 0; i < 10; i++ {
		l.Add(fabric.Record{T: time.Duration(i), Kind: "apply", Detail: fmt.Sprintf("sw=s%d", i%2)})
	}
	var got []time.Duration
	for _, r := range l.Related("s1", 3) {
		got = append(got, r.T)
	}
	if want := []time.Duration{1, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("Related times %v, want %v", got, want)
	}
}
