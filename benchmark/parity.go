package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// paritySmoke shows that the harness measures the program that ships:
// it builds cmd/revnfd, starts it once per workload with the flags the
// in-process engine's serve.Config corresponds to, sends both servers the
// same first parityRequests pool requests over one connection, and
// requires the decision bytes to be identical. The daemon's clock is
// frozen (-slot 0) and the in-process one is never ticked, so both decide
// at slot 1; the requests ask for slots 1 to 32 in turn.
func paritySmoke(seed int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "revnfd"))
	if err != nil {
		return err
	}
	if out, err := exec.Command("go", "build", "-o", bin, "revnf/cmd/revnfd").CombinedOutput(); err != nil {
		return fmt.Errorf("build cmd/revnfd: %v\n%s", err, out)
	}
	for i := range specs {
		if err := parityOne(bin, &specs[i], seed); err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
	}
	return nil
}

func parityOne(bin string, sp *spec, seed int64) error {
	r, err := newRig(sp, seed)
	if err != nil {
		return err
	}
	defer r.close()
	var reqs []byte
	for i := 0; i < parityRequests; i++ {
		reqs = stamp(reqs, sp.Proto, r.enc[i], 1+i/sp.PerSlot%32)
	}
	inProcess, err := exchange(r.addr, sp.Proto, reqs)
	if err != nil {
		return fmt.Errorf("in-process server: %w", err)
	}

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0",
		"-algorithm", "pd", "-scheme", sp.Scheme.Flag(), "-horizon-mode", "rolling",
		"-horizon", strconv.Itoa(horizon), "-queue", strconv.Itoa(queueSize),
		"-workers", strconv.Itoa(workers), "-slot", "0", "-seed", strconv.Itoa(networkSeed))
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("start revnfd: %w", err)
	}
	// Whatever happens below, the daemon is stopped and waited for.
	defer func() {
		_ = daemon.Process.Signal(os.Interrupt) // a daemon that already exited is fine
		done := make(chan struct{})
		go func() {
			_, _ = io.Copy(io.Discard, stdout) // drain the shutdown banner so Wait can finish
			_ = daemon.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = daemon.Process.Kill()
			<-done
		}
	}()
	const banner = "streaming ingest (ndjson, frame) listening on "
	addr := ""
	sc := bufio.NewScanner(stdout)
	for addr == "" && sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), banner); ok {
			addr = after
		}
	}
	if addr == "" {
		return fmt.Errorf("revnfd did not announce its stream listener")
	}
	shipped, err := exchange(addr, sp.Proto, reqs)
	if err != nil {
		return fmt.Errorf("revnfd: %w", err)
	}
	if !bytes.Equal(inProcess, shipped) {
		return fmt.Errorf("decisions differ between the in-process server and cmd/revnfd")
	}
	return nil
}

// exchange sends the pre-encoded requests over one new connection and
// returns the bytes of the parityRequests decisions that come back.
func exchange(addr, proto string, reqs []byte) ([]byte, error) {
	c, err := dial(addr, proto, 0)
	if err != nil {
		return nil, err
	}
	defer c.conn.Close()
	_ = c.conn.SetDeadline(time.Now().Add(ioDeadline)) // a failed deadline only loses the hang guard
	// Write from a second goroutine: the server answers while it reads, and
	// neither side's socket buffer is sized for the whole exchange.
	werr := make(chan error, 1)
	go func() {
		_, err := c.conn.Write(reqs)
		werr <- err
	}()
	var out []byte
	for i := 0; i < parityRequests; i++ {
		if proto == "ndjson" {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return nil, fmt.Errorf("decision %d: %w", i, err)
			}
			out = append(out, line...)
			continue
		}
		typ, payload, err := c.fr.Next()
		if err != nil {
			return nil, fmt.Errorf("decision %d: %w", i, err)
		}
		out = append(append(out, typ), payload...)
	}
	if err := <-werr; err != nil {
		return nil, fmt.Errorf("write requests: %w", err)
	}
	return out, nil
}
