package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"testing"

	"flashwalker/internal/snapshot"
)

// Snapshot-format pins: the SHA-256 of the encoded container at the third
// snapshot cut of the golden engine run and of the 2-board golden array
// run. They prove the persisted bytes — the WalkState/NodeState/
// FabricWalkState DTOs and the order every store fills them — do not move
// when the in-memory walk representation changes, so state dirs written by
// an older build still recover. An intentional format change must bump
// snapshot.Version and re-capture both values.
const (
	snapFormatEngineSHA = "7ed9f0d409d2b189f16afae2f0493835f81436ef64d0ac7fb36a766890b8aab2"
	snapFormatArraySHA  = "4777cee0b2c3304e6e15562f487eb46dd95d611d3114756c07be891e776aa334"
)

// snapFormatChildEnv marks the re-executed child that computes the pins.
const snapFormatChildEnv = "FLASHWALKER_SNAPSHOT_FORMAT_CHILD"

// TestSnapshotFormatPin checks both pins in a fresh process: gob numbers
// the types it meets in first-use order per process, so the container bytes
// depend on what the test binary encoded or decoded earlier. The child runs
// only this test, which makes the bytes a function of the format alone.
func TestSnapshotFormatPin(t *testing.T) {
	if os.Getenv(snapFormatChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSnapshotFormatPin$", "-test.count=1")
		cmd.Env = append(os.Environ(), snapFormatChildEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("snapshot-format child failed: %v\n%s", err, out)
		}
		return
	}
	g := testGraph(t)
	pin := func(what, kind string, v any, want string) {
		data, err := snapshot.Encode(kind, v)
		if err != nil {
			t.Fatalf("%s: Encode: %v", what, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s snapshot container changed (%d bytes):\n got %s\nwant %s", what, len(data), got, want)
		}
	}
	pin("engine", "core-engine", interruptCore(t, g, goldenConfig(), 3), snapFormatEngineSHA)
	pin("2-board array", "core-array", interruptArray(t, g, arrayConfig(2), 3, nil), snapFormatArraySHA)
}
