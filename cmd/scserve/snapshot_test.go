package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// bootServer runs the command loop on an ephemeral port with extra flags
// and waits for its listen line, returning the address, the output buffer,
// the exit channel, and the shutdown trigger.
func bootServer(t *testing.T, extra ...string) (string, *syncBuffer, chan error, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "5s"}, extra...)
	go func() { done <- run(ctx, args, out) }()

	addrRE := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1], out, done, cancel
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no listen line within deadline:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopServer shuts the command loop down through the SIGTERM path and waits
// for a clean exit.
func stopServer(t *testing.T, out *syncBuffer, done chan error, cancel context.CancelFunc) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not drain:\n%s", out.String())
	}
}

// TestSnapshotAcrossRestart is the kill-and-restart proof: a server warmed
// by one advise, drained with -snapshot, then rebooted on the same file
// must answer the same query with cache hits instead of cold solves.
func TestSnapshotAcrossRestart(t *testing.T) {
	snapshot := filepath.Join(t.TempDir(), "warm.json")
	body := `{"scs": [{"vms": 6, "arrivalRate": 3.5}, {"vms": 6, "arrivalRate": 4.2}],
	          "maxShare": 3, "price": 0.5}`

	addr, out, done, cancel := bootServer(t, "-snapshot", snapshot)
	resp, err := http.Post("http://"+addr+"/v1/advise", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming advise = %d", resp.StatusCode)
	}
	stopServer(t, out, done, cancel)
	if !strings.Contains(out.String(), "saved warm-cache snapshot") {
		t.Fatalf("drain did not save the snapshot:\n%s", out.String())
	}

	// The restarted process is a different server with the same flag line.
	addr, out, done, cancel = bootServer(t, "-snapshot", snapshot)
	defer stopServer(t, out, done, cancel)
	if !strings.Contains(out.String(), "restored") {
		t.Fatalf("boot did not restore the snapshot:\n%s", out.String())
	}
	resp, err = http.Post("http://"+addr+"/v1/advise", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored advise = %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Cache.Hits == 0 || metrics.Cache.Misses != 0 {
		t.Fatalf("first post-restore advise was not fully cached: %+v", metrics.Cache)
	}
}

// TestSnapshotV1BootsCold: a snapshot file in the retired version-1 format
// (nested per-layer versions and approx warm-start vectors) is logged and
// ignored, the server answers cold, and the drain replaces the file with a
// version-2 snapshot.
func TestSnapshotV1BootsCold(t *testing.T) {
	snapshot := filepath.Join(t.TempDir(), "warm.json")
	v1 := `{"version":1,"frameworks":[{"spec":{"scs":[{"name":"sc0","vms":6,"arrivalRate":3.5,"serviceRate":1,"sla":0.2,"publicPrice":1},` +
		`{"name":"sc1","vms":6,"arrivalRate":4.2,"serviceRate":1,"sla":0.2,"publicPrice":1}],"model":"approx","maxShare":3},` +
		`"state":{"version":1,"eval":{"version":1,"vectors":[{"key":"0,0,","metrics":[{"PublicRate":1},{"PublicRate":1}]}]},` +
		`"warm":{"version":1,"entries":[{"k":2,"target":0,"sc":0,"states":2,"pi":[0.5,0.5]}]}}}]}` + "\n"
	if err := os.WriteFile(snapshot, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	addr, out, done, cancel := bootServer(t, "-snapshot", snapshot)
	t.Cleanup(cancel)
	if !strings.Contains(out.String(), "ignoring snapshot") {
		t.Fatalf("boot did not refuse the version-1 snapshot:\n%s", out.String())
	}
	body := `{"scs": [{"vms": 6, "arrivalRate": 3.5}, {"vms": 6, "arrivalRate": 4.2}],
	          "maxShare": 3, "price": 0.5}`
	resp, err := http.Post("http://"+addr+"/v1/advise", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold advise = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Cache struct {
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Cache.Misses == 0 {
		t.Fatal("advise after a refused snapshot ran no cold solves")
	}
	stopServer(t, out, done, cancel)

	saved, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(saved, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || strings.Contains(string(saved), `"warm"`) {
		t.Fatalf("drain wrote a version-%d snapshot:\n%s", snap.Version, saved)
	}
}

// TestAdmissionFlagOverWire: -max-inflight must surface in /metrics, the
// wire-visible proof the flag reached the admission layer.
func TestAdmissionFlagOverWire(t *testing.T) {
	addr, out, done, cancel := bootServer(t, "-max-inflight", "2", "-queue-wait", "100ms")
	defer stopServer(t, out, done, cancel)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Admission struct {
			MaxInflight int `json:"maxInflight"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Admission.MaxInflight != 2 {
		t.Fatalf("maxInflight over the wire = %d, want 2", metrics.Admission.MaxInflight)
	}
}
