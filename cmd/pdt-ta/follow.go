package main

// Live-tail mode: `pdt-ta <kind> -follow live.pdt`, for every kind the
// stream folds (kinds.Kind.FromStream: summary and profile), watches a
// trace file that is still being written (pdt-run -live) and reports on
// it as it grows. New bytes are fed through the incremental StreamLoader
// — memory stays bounded by the stream window no matter how large the
// trace gets — with a running status line on stderr, and the kind's
// standard report lands on stdout once the writer seals the stream (or
// the file goes idle past -idle, whichever is first).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/kinds"
)

// follow tails path until the trace footer arrives, the file is idle
// past idle (0 = wait forever), or ctx expires. k's report of the final
// result — possibly of a truncated stream, if the writer crashed — goes
// to out: its JSON when asJSON is set, else its text with top rows.
func follow(ctx context.Context, k *kinds.Kind, path string, poll, idle time.Duration, asJSON bool, top int, out io.Writer) error {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	f, err := openFollow(ctx, path, poll)
	if err != nil {
		return err
	}
	defer f.Close()

	l := analyzer.NewStreamLoader(analyzer.StreamOptions{Validate: true, Ctx: ctx})
	buf := make([]byte, 1<<20)
	lastGrowth := time.Now()
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			lastGrowth = time.Now()
			if _, werr := l.Write(buf[:n]); werr != nil {
				return werr
			}
			continue // drain everything available before sleeping
		}
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		// Caught up with the writer. A sealed stream is finished; an idle
		// one is abandoned (the writer crashed or stalled) — report what
		// survives, exactly like loading the truncated file.
		if l.Sealed() {
			break
		}
		if idle > 0 && time.Since(lastGrowth) > idle {
			fmt.Fprintf(os.Stderr, "pdt-ta: %s idle for %s; reporting what arrived\n", path, idle)
			break
		}
		fmt.Fprintf(os.Stderr, "\rpdt-ta: following %s: %d bytes, %d events ",
			path, l.Bytes(), l.Events())
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr)
			return ctx.Err()
		case <-time.After(poll):
		}
	}
	fmt.Fprintln(os.Stderr)

	res, err := l.Finish()
	if err != nil {
		return err
	}
	v := k.FromStream(res)
	if asJSON {
		return k.JSON(res.Trace, v, out)
	}
	k.Text(res.Trace, v, top, out)
	return nil
}

// openFollow opens the trace, waiting for the writer to create it first
// if -follow raced ahead of pdt-run.
func openFollow(ctx context.Context, path string, poll time.Duration) (*os.File, error) {
	for {
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("waiting for %s: %w", path, ctx.Err())
		case <-time.After(poll):
		}
	}
}
