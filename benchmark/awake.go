package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// On a virtual machine an idle vCPU halts, and how long it takes to resume
// depends on the host: KVM polls for a while before descheduling a halted
// vCPU and adapts that window to the recent wake-up pattern. On the reference
// box that put wire-rt — whose workers park in the netpoller on every round
// trip — into one of two regimes, about 37k or 52k ops/s, for minutes at a
// time (and 70k whenever anything else kept the CPUs awake), and it left the
// single-threaded workloads, whose second CPU only wakes for the garbage
// collector, more exposed to the host's scheduler than a busy machine is.
// keepAwake pins the machine in the one state that can be reproduced: one
// lowest-priority busy loop per CPU for as long as the benchmark measures, so
// no vCPU ever halts, while any thread of the benchmark pre-empts them at
// once.

// keepAwake starts the busy loops (this binary re-executed with -spin) and
// returns the function that kills them and waits for them to end. Where they
// cannot be started it reports why and the workload runs on an idling machine.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return func() {}, err
	}
	var started []*exec.Cmd
	stop = func() {
		for _, cmd := range started {
			_ = cmd.Process.Kill() // it may have exited already; Wait reaps it either way
			_ = cmd.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-spin")
		if err := cmd.Start(); err != nil {
			stop()
			return func() {}, fmt.Errorf("starting idle spinner: %w", err)
		}
		started = append(started, cmd)
	}
	return stop, nil
}

// spin is the -spin mode: drop to the lowest priority and burn CPU until the
// parent is gone. Checking the parent keeps a spinner from outliving a
// benchmark that was killed. A spinner that cannot lower its priority would
// compete with the benchmark instead of yielding to it, so it gives up.
func spin() int {
	// Niceness is per thread on Linux: stay on the thread that has it.
	runtime.LockOSThread()
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: idle spinner: %v\n", err)
		return 1
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for i := 0; i < 1<<24; i++ {
		}
	}
	return 0
}
