package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The checked-in snapshot fixtures under testdata/snapshots pin the
// on-disk formats: every version the loader claims to accept has a file
// there that must keep loading and answering. v1_tiny/v2_tiny (with
// recorded answers) cover the legacy text formats in
// snapshot_compat_test.go; the v3/v4 pairs below pin the current text and
// binary formats against each other. All of them seed FuzzLoadDatabase.

func fixturePath(name string) string { return filepath.Join(fixtureDir, name) }

func currentFixtureNames() []string {
	return []string{"v3_tiny.pgsnap", "v4_tiny.pgsnapb", "v3_tiny_tombs.pgsnap", "v4_tiny_tombs.pgsnapb"}
}

// TestRegenSnapshotFixtures is the maintenance entry point, not a test:
//
//	PGSNAP_REGEN=1 go test ./internal/core -run RegenSnapshotFixtures
//
// rewrites the current-format fixtures after a deliberate format change;
// commit the result. Without the variable it only verifies the files
// exist. The v1/v2 fixtures are never regenerated — old writers are gone.
func TestRegenSnapshotFixtures(t *testing.T) {
	if os.Getenv("PGSNAP_REGEN") == "" {
		for _, name := range currentFixtureNames() {
			if _, err := os.Stat(fixturePath(name)); err != nil {
				t.Errorf("missing fixture %s — regenerate with PGSNAP_REGEN=1", name)
			}
		}
		return
	}
	write := func(name string, b []byte) {
		if err := os.WriteFile(fixturePath(name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, _ := snapDB(t, 8)
	var v3, v4 bytes.Buffer
	if err := db.View().Save(&v3); err != nil {
		t.Fatal(err)
	}
	if err := db.View().SaveBinary(&v4); err != nil {
		t.Fatal(err)
	}
	write("v3_tiny.pgsnap", v3.Bytes())
	write("v4_tiny.pgsnapb", v4.Bytes())

	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	var v3t, v4t bytes.Buffer
	if err := db.View().Save(&v3t); err != nil {
		t.Fatal(err)
	}
	if err := db.View().SaveBinary(&v4t); err != nil {
		t.Fatal(err)
	}
	write("v3_tiny_tombs.pgsnap", v3t.Bytes())
	write("v4_tiny_tombs.pgsnapb", v4t.Bytes())
}

// TestSnapshotFixtureReplay is the cross-format contract on disk: the v3
// text and v4 binary fixtures of the same corpus must answer recorded
// queries identically (with and without tombstones), and the binary
// fixtures must survive load→save byte-identically. A failure here means
// a codec change altered the meaning of existing files.
func TestSnapshotFixtureReplay(t *testing.T) {
	_, raw := snapDB(t, 8)
	qs := snapQueries(t, raw, 3)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 9}

	load := func(name string) *Database {
		b, err := os.ReadFile(fixturePath(name))
		if err != nil {
			t.Fatalf("missing fixture %s (regenerate with PGSNAP_REGEN=1): %v", name, err)
		}
		db, err := LoadDatabase(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		return db
	}
	type recorded struct {
		Answers []int
		SSP     map[int]float64
	}
	answers := func(db *Database) []recorded {
		out := make([]recorded, len(qs))
		for i, q := range qs {
			r, err := db.View().QueryCtx(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = recorded{r.Answers, r.SSP}
		}
		return out
	}

	if got, want := answers(load("v4_tiny.pgsnapb")), answers(load("v3_tiny.pgsnap")); !reflect.DeepEqual(got, want) {
		t.Errorf("v4_tiny.pgsnapb answers diverge from v3_tiny.pgsnap")
	}
	if got, want := answers(load("v4_tiny_tombs.pgsnapb")), answers(load("v3_tiny_tombs.pgsnap")); !reflect.DeepEqual(got, want) {
		t.Errorf("v4_tiny_tombs.pgsnapb answers diverge from v3_tiny_tombs.pgsnap")
	}

	for _, name := range []string{"v4_tiny.pgsnapb", "v4_tiny_tombs.pgsnapb"} {
		b, err := os.ReadFile(fixturePath(name))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := load(name).View().SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Errorf("%s: load→save not byte-identical (%d vs %d bytes)", name, buf.Len(), len(b))
		}
	}
}
