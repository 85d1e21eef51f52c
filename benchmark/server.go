package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything building and running leave behind, relative to
// the checkout root: the Go build cache, the binaries and each run's data
// directory. It is the directory the driver names for build output.
const buildDir = ".bench_build"

// buildServer compiles cmd/fuzzyid-server from the checkout's source into
// buildDir and returns the binary's path.
func buildServer() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", errors.New("run from the repository root (no go.mod here)")
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "fuzzyid-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fuzzyid-server")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build fuzzyid-server: %w", err)
	}
	return bin, nil
}

// server is one running fuzzyid server: the spawned binary, or for the smoke
// pass the same system inside the harness process.
type server struct {
	addr      string
	pid       int
	recovered int           // records recovered from the data directory at start
	startup   time.Duration // start → listening, recovery included
	statsJSON func() ([]byte, error)
	kill      func() // crash: SIGKILL and wait (the durability check, and every throw-away server)
	stop      func() // graceful shutdown and wait
}

// spawnServer launches the binary on free loopback ports and waits for its
// start-up banner, which names the protocol and stats addresses it bound.
func spawnServer(bin string, w workload, dataDir string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-stats-addr", "127.0.0.1:0", "-dim", strconv.Itoa(w.dim)}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-sync", "always", "-snapshot-interval", "0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{pid: cmd.Process.Pid}
	statsAddr, exited := "", make(chan struct{})
	lines := bufio.NewScanner(out)
	for statsAddr == "" && lines.Scan() {
		line := lines.Text()
		switch {
		case strings.HasPrefix(line, "fuzzyid-server listening on "):
			s.addr = strings.Fields(line)[3]
		case strings.HasPrefix(line, "persistence: "):
			if i := strings.Index(line, "("); i >= 0 {
				s.recovered, _ = strconv.Atoi(strings.Fields(line[i+1:])[0])
			}
		case strings.HasPrefix(line, "stats: http://"):
			statsAddr = strings.TrimSuffix(strings.TrimPrefix(line, "stats: http://"), "/stats")
		}
	}
	s.startup = time.Since(start)
	go func() {
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(exited)
	}()
	s.kill = func() {
		_ = cmd.Process.Kill()
		<-exited
	}
	s.stop = func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			s.kill()
		}
	}
	s.statsJSON = func() ([]byte, error) {
		c := http.Client{Timeout: 5 * time.Second}
		resp, err := c.Get("http://" + statsAddr + "/stats")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	if s.addr == "" || statsAddr == "" {
		s.kill()
		return nil, errors.New("server exited before announcing its addresses")
	}
	return s, nil
}

// statsDoc is the part of the server's /stats document the harness reads.
type statsDoc struct {
	Counters   map[string]uint64    `json:"counters"`
	Histograms map[string]statsHist `json:"histograms"`
	Runtime    struct {
		GCPauseTotalMS float64 `json:"gc_pause_total_ms"`
		GCCycles       uint32  `json:"gc_cycles"`
	} `json:"runtime"`
}

type statsHist struct {
	Count   uint64 `json:"count"`
	Buckets []struct {
		UpperUS int64  `json:"le_us"`
		Count   uint64 `json:"count"`
	} `json:"buckets"`
}

func (s *server) stats() (*statsDoc, error) {
	buf, err := s.statsJSON()
	if err != nil {
		return nil, fmt.Errorf("stats scrape: %w", err)
	}
	var doc statsDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("stats scrape: %w", err)
	}
	return &doc, nil
}

// histWindow is one server histogram restricted to the measured window: the
// bucket counts of the closing scrape minus those of the opening one.
type histWindow struct {
	count   uint64
	buckets map[int64]uint64 // exclusive upper bound in µs → count
}

func histBetween(before, after *statsDoc, name string) histWindow {
	b, a := before.Histograms[name], after.Histograms[name]
	w := histWindow{count: a.Count - b.Count, buckets: map[int64]uint64{}}
	if w.count == 0 {
		return w
	}
	for _, x := range a.Buckets {
		w.buckets[x.UpperUS] = x.Count
	}
	for _, x := range b.Buckets {
		w.buckets[x.UpperUS] -= x.Count
	}
	return w
}

// p50 interpolates the median inside its power-of-two bucket, in the
// bucket's own unit (µs for latencies, plain values for ObserveValue ones).
func (w histWindow) p50() float64 {
	if w.count == 0 {
		return 0
	}
	bounds := make([]int64, 0, len(w.buckets))
	for ub := range w.buckets {
		bounds = append(bounds, ub)
	}
	slices.Sort(bounds)
	rank, cum := float64(w.count)/2, 0.0
	for _, ub := range bounds {
		c := float64(w.buckets[ub])
		if c > 0 && rank <= cum+c {
			lo := float64(ub / 2)
			if ub <= 1 {
				lo = 0
			}
			return lo + (rank-cum)/c*(float64(ub)-lo)
		}
		cum += c
	}
	return float64(bounds[len(bounds)-1])
}

// procSample is the /proc view of the server: CPU consumed so far and the
// kernel's resident-set high-water mark.
type procSample struct {
	cpu    time.Duration
	peakMB float64
}

func (s *server) proc() procSample { return readProc(s.pid) }

func readProc(pid int) procSample {
	var p procSample
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line, in clock ticks (100 Hz).
		if i := strings.LastIndexByte(string(buf), ')'); i >= 0 {
			f := strings.Fields(string(buf[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				p.cpu = time.Duration(ut+st) * 10 * time.Millisecond
			}
		}
	}
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				if f := strings.Fields(line); len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					p.peakMB = kb / 1024
				}
			}
		}
	}
	return p
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
