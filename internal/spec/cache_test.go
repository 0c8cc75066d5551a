package spec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// solvedCache returns a framework cache holding one small approx-model
// framework with two solved share vectors: a solve that also fills the
// approximate model's in-process warm-start cache.
func solvedCache(t testing.TB) *Cache {
	t.Helper()
	sp := Federation{
		SCs:      []SC{{VMs: 4, ArrivalRate: 2.5}, {VMs: 4, ArrivalRate: 3}},
		MaxShare: 2,
		Approx:   &Approx{Passes: 1},
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	fw, err := c.Framework(&sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, shares := range [][]int{{1, 1}, {2, 1}} {
		if _, err := fw.Evaluator().Evaluate(shares, 0); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func writeSnapshot(t testing.TB, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotFormat: a written snapshot is one version-2 layer whose
// framework entries carry the spec and the memoized evaluations — no
// nested versions and no warm-start vectors.
func TestSnapshotFormat(t *testing.T) {
	raw := writeSnapshot(t, solvedCache(t))
	var snap struct {
		Version    int                          `json:"version"`
		Frameworks []map[string]json.RawMessage `json:"frameworks"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || SnapshotVersion != 2 {
		t.Fatalf("snapshot version %d (SnapshotVersion %d), want 2", snap.Version, SnapshotVersion)
	}
	if len(snap.Frameworks) != 1 {
		t.Fatalf("%d framework entries, want 1", len(snap.Frameworks))
	}
	fw := snap.Frameworks[0]
	if len(fw) != 2 || fw["spec"] == nil || fw["eval"] == nil {
		t.Fatalf("framework entry is not exactly spec and eval:\n%s", raw)
	}
	var eval map[string][]json.RawMessage
	if err := json.Unmarshal(fw["eval"], &eval); err != nil {
		t.Fatalf("eval is not a map of lists: %v", err)
	}
	if len(eval) != 1 || len(eval["vectors"]) != 2 {
		t.Fatalf("eval = %s, want only the 2 solved vectors", fw["eval"])
	}
	if bytes.Contains(raw, []byte(`"warm"`)) || bytes.Contains(raw, []byte(`"pi"`)) {
		t.Fatalf("snapshot carries warm-start vectors:\n%s", raw)
	}

	// A version-1 file is refused outright.
	v1 := bytes.Replace(raw, []byte(`"version":2`), []byte(`"version":1`), 1)
	if n, err := NewCache(0).ReadSnapshot(bytes.NewReader(v1)); err == nil || n != 0 {
		t.Fatalf("version-1 snapshot read: %d adopted, err %v", n, err)
	}
}

// FuzzReadSnapshot: a snapshot is outside input (a worker reads it from
// the dispatcher over HTTP), so ReadSnapshot must never panic, and
// whatever it accepts must be a fixed point of write → read → write.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(writeSnapshot(f, solvedCache(f)))
	f.Add([]byte(`{"version":1,"frameworks":[{"spec":{"scs":[{"name":"sc0","vms":4,"arrivalRate":2.5}]},` +
		`"state":{"version":1,"eval":{"version":1,"vectors":[{"key":"1,","metrics":[{"PublicRate":0.1}]}]},` +
		`"warm":{"version":1,"entries":[{"k":1,"target":0,"sc":0,"states":2,"pi":[0.5,0.5]}]}}}]}`))
	f.Add([]byte(`{"version":2,"frameworks":[{"spec":{"scs":[{"vms":3,"arrivalRate":1}],"model":"fluid"},` +
		`"eval":{"vectors":[{"key":"1,","metrics":[{"Utilization":0.5}]},{"key":"","metrics":[{}]}]}}]}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"version":2,"frameworks":[{"spec":null,"eval":{"vectors":[{"key":"0,","metrics":null}]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache(0)
		if _, err := c.ReadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		first := writeSnapshot(t, c)
		fresh := NewCache(0)
		if _, err := fresh.ReadSnapshot(bytes.NewReader(first)); err != nil {
			t.Fatalf("re-reading a written snapshot: %v\n%s", err, first)
		}
		if second := writeSnapshot(t, fresh); !bytes.Equal(first, second) {
			t.Fatalf("write → read → write drifted:\n%s\nvs\n%s", first, second)
		}
	})
}
