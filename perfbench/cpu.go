package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A small benchmark VM shares its vCPUs with other tenants, and their load
// changes how fast the same code runs by 15% and more from one second to
// the next. CPU time per operation therefore drifts with
// the machine, not only with the program. The sampler below runs a fixed
// reference loop alongside every measured phase and reports CPU per
// operation in reference microseconds: CPU time scaled by
// refNominal / (the reference loop's CPU time measured in the same
// phase). A slower machine stretches both and cancels out; a costlier
// code path raises only the workload's share.

// refSteps is the reference loop's length and refNominal the CPU time it
// is defined to take: one reference microsecond is 1/refNominal of it.
const (
	refSteps   = 170_000
	refNominal = 500 * time.Microsecond
)

// refLoop is integer work in registers only: it touches no memory, so the
// workload's own cache traffic does not slow it, while a busier physical
// core does.
func refLoop() uint32 {
	x, s := uint32(2463534242), uint32(0)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s += x >> 3 * (x | 1)
	}
	return s
}

// refSink keeps refLoop's result live.
var refSink atomic.Uint32

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU reads the calling thread's CPU time. Unlike schedstat, the
// clock is brought up to date on every read.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// refSample runs the reference loop once on a locked thread and returns
// the CPU time it took.
func refSample() (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := threadCPU()
	if err != nil {
		return 0, err
	}
	refSink.Add(refLoop())
	t1, err := threadCPU()
	return t1 - t0, err
}

// cpuWindow is the sampler's period.
const cpuWindow = 100 * time.Millisecond

// cpuSampler measures, over one phase, the server's and this process's
// CPU time per completed operation, with one reference sample per window.
type cpuSampler struct {
	server int
	ops    *atomic.Int64
	stop   chan struct{}
	done   chan struct{}

	srv0, cli0 time.Duration
	ops0       int64
	ref        time.Duration // summed reference CPU time
	refN       int
	err        error
}

// startSampler begins sampling; finish stops it.
func startSampler(serverPid int, ops *atomic.Int64) *cpuSampler {
	s := &cpuSampler{server: serverPid, ops: ops, stop: make(chan struct{}), done: make(chan struct{})}
	s.ops0 = ops.Load()
	if s.srv0, s.err = cpuTime(serverPid); s.err == nil {
		s.cli0, s.err = cpuTime(os.Getpid())
	}
	go s.loop()
	return s
}

func (s *cpuSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(cpuWindow)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		if s.err != nil {
			continue
		}
		d, err := refSample()
		if err != nil {
			s.err = err
			continue
		}
		s.ref += d
		s.refN++
	}
}

// finish stops sampling and returns the server's and this process's CPU
// per operation in reference microseconds. The reference loop's own CPU
// is taken off this process's share.
func (s *cpuSampler) finish() (srv, cli float64, err error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	srv1, err := cpuTime(s.server)
	if err != nil {
		return 0, 0, err
	}
	cli1, err := cpuTime(os.Getpid())
	if err != nil {
		return 0, 0, err
	}
	cliCPU := cli1 - s.cli0 - s.ref // the samples ran inside this process
	if s.refN == 0 {
		// A phase shorter than one window: take one sample now.
		if s.ref, err = refSample(); err != nil {
			return 0, 0, err
		}
		s.refN = 1
	}
	n := s.ops.Load() - s.ops0
	if n <= 0 {
		return 0, 0, fmt.Errorf("no operation completed in the measured phase")
	}
	refMean := float64(s.ref) / float64(s.refN)
	logf("cpu phase: %d ops, reference loop %.1fus (nominal %v) over %d samples, raw server %.2fus/op",
		n, refMean/1e3, refNominal, s.refN, float64(srv1-s.srv0)/1e3/float64(n))
	scale := float64(refNominal) / refMean / 1e3 / float64(n)
	return float64(srv1-s.srv0) * scale, float64(cliCPU) * scale, nil
}
