package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// runEnv is recorded in every output row: a number means nothing without
// the box it was measured on.
type runEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Load1      float64 `json:"load1_at_start"`
	DataDir    string  `json:"data_dir"`
	DataFS     string  `json:"data_fs"`
}

// findRoot locates the stindex module root: the working directory when
// run through bench/run.sh, its parent under `go run .` inside bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module stindex\n")) {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no stindex module root at %s or its parent: run from the repository root or from bench/", wd)
}

// Filesystem magic numbers statfs reports, for the ones worth naming.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
}

// workDir resolves where data, journals and binaries go: $STBENCH_DIR
// when set, else .bench_build/ in the checkout, so a default run writes
// nothing outside it. Point STBENCH_DIR at a tmpfs to take device flush
// cost out of ingest-mixed; the output says which it was.
func workDir(root string) (string, error) {
	dir := os.Getenv("STBENCH_DIR")
	if dir == "" {
		dir = filepath.Join(root, ".bench_build")
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func captureEnv(dataDir string) runEnv {
	env := runEnv{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		DataDir:    dataDir,
		DataFS:     "unknown",
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		magic := int64(st.Type)
		if name, ok := fsNames[magic]; ok {
			env.DataFS = name
		} else {
			env.DataFS = fmt.Sprintf("0x%x", magic)
		}
	}
	return env
}

// buildServer compiles cmd/stserve into dir before any clock starts;
// `go build` time is excluded from every metric on purpose.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/stserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building stserve: %v\n%s", err, out)
	}
	return filepath.Join(bin, "stserve"), nil
}
