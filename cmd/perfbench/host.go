package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host is the fingerprint recorded in every result file, so runs on
// different or noisy hosts are told apart.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// refBurst is the calibration burst time that defines the reference host:
// the normalized end-to-end metrics read as they would on a host where one
// burst takes this long.
const refBurst = 50 * time.Millisecond

// calRecord is the calibration burst's JSON payload.
type calRecord struct {
	Name  string            `json:"name"`
	Words []string          `json:"words"`
	Score float64           `json:"score"`
	Tags  map[string]string `json:"tags"`
}

// calibrate runs one calibration burst on every CPU at once and times it:
// per CPU, 600 sha256 blocks of 32 KiB and 2,000 JSON round trips of a
// small map-carrying record. It uses the standard library only, so no change
// to the program under test moves it; its time tracks how fast the shared
// host runs at that moment, allocation and GC included.
func calibrate(nproc int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < nproc; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for i := 0; i < 600; i++ {
				sum := sha256.Sum256(buf)
				buf[i] ^= sum[0]
			}
			for i := 0; i < 2000; i++ {
				r := calRecord{Name: "review " + strconv.Itoa(i), Score: float64(i), Tags: map[string]string{}}
				for j := 0; j < 12; j++ {
					w := "word" + strconv.Itoa((i*7+j)%97)
					r.Words = append(r.Words, w)
					r.Tags[w] = w
				}
				b, err := json.Marshal(r)
				if err != nil {
					panic(err) // a fixed, always-encodable value
				}
				var back calRecord
				if err := json.Unmarshal(b, &back); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
