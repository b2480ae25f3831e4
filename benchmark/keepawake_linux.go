//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Keep-awake: while a workload runs, one child process per CPU sits in a
// busy loop under SCHED_IDLE, the scheduling class that runs only when
// nothing else wants the CPU and is preempted the moment anything does. It
// takes no time from the program under test; it keeps the virtual CPUs from
// halting.
//
// Why: on the reference box (a 2-vCPU KVM guest) a halted vCPU is woken by
// the host, and how long that takes depends on the host's adaptive
// halt-polling state, which flips between two regimes every few seconds to
// minutes. The engines hand work between threads every few hundred
// microseconds (parallel apply, an idle worker napping 100 us at a time,
// acks, fsync waits), so the regime sets whether those hand-offs cost
// microseconds or a host reschedule: sssp-uk-churn ran at batch_ms_p50 2.45
// or 3.25 ms depending on it, four of ten 25-second runs never left the slow
// regime, and no estimator inside a run can undo that (README "Keep-awake").

const schedIdle = 5 // SCHED_IDLE

// startKeepAwake starts the spinners and returns how many CPUs they hold and
// a function that kills them and waits for them. On any failure it reports
// why and returns 0: the run goes on, only noisier.
//
// The children are set to die with the thread that started them (Pdeathsig),
// which covers the exit paths that skip the returned function. So a
// goroutine of its own starts them and keeps its thread to itself until
// stop; returning while still locked ends the thread.
func startKeepAwake() (cpus int, stop func()) {
	started := make(chan int)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		n, kill := spawnSpinners()
		started <- n
		<-quit
		kill()
	}()
	cpus = <-started
	return cpus, func() { close(quit); <-done }
}

func spawnSpinners() (cpus int, kill func()) {
	var started []*exec.Cmd
	kill = func() {
		for _, c := range started {
			c.Process.Kill() // SIGKILL: an idle-class process may not get to run a handler soon
			c.Wait()
		}
		started = nil
	}
	fail := func(err error) (int, func()) {
		fmt.Fprintln(os.Stderr, "benchmark: keep-awake off:", err)
		kill()
		return 0, kill
	}
	var mask [16]uint64 // room for 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fail(fmt.Errorf("sched_getaffinity: %w", e))
	}
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		c := exec.Command("/bin/sh", "-c", "while :; do :; done")
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			return fail(err)
		}
		started = append(started, c)
		pid := uintptr(c.Process.Pid)
		var one [16]uint64
		one[cpu/64] = 1 << (cpu % 64)
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, pid, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
			return fail(fmt.Errorf("sched_setaffinity cpu %d: %w", cpu, e))
		}
		var prio int32 // sched_param{sched_priority: 0}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, pid, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
			return fail(fmt.Errorf("sched_setscheduler SCHED_IDLE: %w", e))
		}
	}
	return len(started), kill
}
