package core

// Distributed recovery acceptance: a 2-process coupled world on localhost
// TCP, one process killed with a real SIGKILL mid-run, relaunched, and the
// world auto-resumes from the common checkpoint — finishing bit-identical to
// a run that never saw the fault. The child processes are re-executions of
// this test binary (TestDistributedWorldChild, inert unless the env var is
// set), so the kill is an actual OS process death: no recover envelope, no
// deferred flush, the peer learns about it only from the dead TCP stream.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"log/slog"

	"net"

	"nektarg/internal/checkpoint"
	"nektarg/internal/mpi"
	"nektarg/internal/mpi/tcptransport"
)

const (
	distRankEnv  = "NEKTARG_DIST_CHILD_RANK"
	distPeersEnv = "NEKTARG_DIST_PEERS"
	distCkEnv    = "NEKTARG_DIST_CKDIR"
	distOutEnv   = "NEKTARG_DIST_OUT"
	distExchEnv  = "NEKTARG_DIST_EXCHANGES"
)

// TestDistributedWorldChild is not a test of its own: it is the body of one
// OS process of the distributed world, re-executed from the test binary by
// TestDistributedRecoverySurvivesProcessKill. Without the env var it skips.
func TestDistributedWorldChild(t *testing.T) {
	rankStr := os.Getenv(distRankEnv)
	if rankStr == "" {
		t.Skip("re-exec helper; driven by TestDistributedRecoverySurvivesProcessKill")
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		t.Fatal(err)
	}
	peers := strings.Split(os.Getenv(distPeersEnv), ",")
	exchanges, err := strconv.Atoi(os.Getenv(distExchEnv))
	if err != nil {
		t.Fatal(err)
	}

	sc := buildRestartScenario(t)
	ck := &Checkpointer{
		Meta:     sc.m,
		Networks: sc.networks,
		Store:    &checkpoint.Store{Dir: os.Getenv(distCkEnv), Keep: 4},
		Every:    1,
	}
	err = RunDistributed(ck, exchanges, DistributedOptions{
		Dial: func() (mpi.Transport, error) {
			return tcptransport.New(rank, peers, tcptransport.Options{RendezvousTimeout: 30 * time.Second})
		},
		MaxRestarts: 5,
		Backoff:     100 * time.Millisecond,
		Log:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		t.Fatalf("rank %d: distributed run failed: %v", rank, err)
	}
	if err := checkpoint.WriteFile(os.Getenv(distOutEnv), sc.finalBundle()); err != nil {
		t.Fatalf("rank %d: writing final state: %v", rank, err)
	}
}

func TestDistributedRecoverySurvivesProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const exchanges = 5

	// Reference: the same physics, single process, no world, no fault.
	straight := buildRestartScenario(t)
	straight.advance(t, exchanges)
	want := straight.finalBundle()

	peers := []string{freeAddr(t), freeAddr(t)}
	base := t.TempDir()
	ckDirs := []string{filepath.Join(base, "ck0"), filepath.Join(base, "ck1")}
	outs := []string{filepath.Join(base, "out0.ckpt"), filepath.Join(base, "out1.ckpt")}

	outputs := map[string]*bytes.Buffer{}
	launch := func(rank int, tag string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestDistributedWorldChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", distRankEnv, rank),
			fmt.Sprintf("%s=%s", distPeersEnv, strings.Join(peers, ",")),
			fmt.Sprintf("%s=%s", distCkEnv, ckDirs[rank]),
			fmt.Sprintf("%s=%s", distOutEnv, outs[rank]),
			fmt.Sprintf("%s=%d", distExchEnv, exchanges),
		)
		buf := &bytes.Buffer{}
		outputs[tag] = buf
		cmd.Stdout = buf
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("launching %s: %v", tag, err)
		}
		return cmd
	}
	dumpOutputs := func() {
		for tag, buf := range outputs {
			t.Logf("--- %s output ---\n%s", tag, buf.String())
		}
	}

	c0 := launch(0, "rank0")
	c1 := launch(1, "rank1-first")

	// Let the world make real progress, then kill -9 the rank-1 process the
	// moment it has committed (and checkpointed) exchange 2.
	target := filepath.Join(ckDirs[1], "checkpoint-00000002.ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(target); err == nil {
			break
		}
		if time.Now().After(deadline) {
			c0.Process.Kill()
			c1.Process.Kill()
			dumpOutputs()
			t.Fatal("world never reached checkpoint 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c1.Wait()
	ws, ok := c1.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		dumpOutputs()
		t.Fatalf("rank 1 did not die by SIGKILL: %v", c1.ProcessState)
	}

	// Relaunch the dead rank; the survivor's dial retries should pick it up.
	c1b := launch(1, "rank1-relaunched")
	if err := waitProc(c0, 2*time.Minute); err != nil {
		dumpOutputs()
		t.Fatalf("rank 0: %v", err)
	}
	if err := waitProc(c1b, 2*time.Minute); err != nil {
		dumpOutputs()
		t.Fatalf("relaunched rank 1: %v", err)
	}

	// The survivor must have actually gone through the failure path (not
	// merely finished before the kill landed).
	if !strings.Contains(outputs["rank0"].String(), "world failed; reconnecting") {
		dumpOutputs()
		t.Fatal("rank 0 never observed the peer death")
	}

	for rank, out := range outs {
		got, err := checkpoint.ReadFile(out)
		if err != nil {
			dumpOutputs()
			t.Fatalf("rank %d final state: %v", rank, err)
		}
		assertCoupledEqual(t, got, want, fmt.Sprintf("rank %d killed-and-resumed vs straight", rank))
	}
}

// freeAddr grabs an ephemeral localhost port and releases it for the child
// processes to bind. The tiny reuse race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitProc(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("timed out after %v", timeout)
	}
}
