package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Inflight deduplicates concurrent computations of one key: while a caller
// (the owner) computes a key's value, later callers of the same key block and
// share the owner's outcome instead of computing it again. It holds nothing
// once a computation returns, so a key requested after that computes afresh.
// The cache's memo path and the service's estimate endpoint both use it. The
// zero value is ready to use.
type Inflight[V any] struct {
	mu    sync.Mutex
	calls map[string]*inflightCall[V]
}

type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns fn's outcome for key, running fn in this goroutine unless
// another caller is already computing key, in which case it waits for that
// caller's outcome; joined reports the latter. fn is responsible for honoring
// ctx on the computing path.
//
// A caller blocked on another's computation stops waiting when ctx is
// cancelled (the computation keeps running for its owner). Cancellation
// never leaks between callers: when the owner's computation dies of *its*
// cancellation, a waiter whose own context is still live retries — becoming
// the new owner if needed — instead of inheriting the foreign context error.
//
// If fn panics (or kills the goroutine via runtime.Goexit), key is still
// released: otherwise every later caller for it would block forever. The
// panic is reported as an error to current waiters, future callers
// recompute, and the panic continues unwinding in the owner.
func (f *Inflight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, joined bool, err error) {
	for {
		f.mu.Lock()
		waiting, ok := f.calls[key]
		if !ok {
			break // this caller owns the computation
		}
		f.mu.Unlock()
		select {
		case <-waiting.done:
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
		if errors.Is(waiting.err, context.Canceled) || errors.Is(waiting.err, context.DeadlineExceeded) {
			// The owner's request was cancelled, not ours: retry.
			if err := ctx.Err(); err != nil {
				return v, false, err
			}
			continue
		}
		return waiting.val, true, waiting.err
	}
	call := &inflightCall[V]{done: make(chan struct{})}
	if f.calls == nil {
		f.calls = map[string]*inflightCall[V]{}
	}
	f.calls[key] = call
	f.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		r := recover()
		if r != nil {
			call.err = fmt.Errorf("runner: computing %s panicked: %v", shortKey(key), r)
		} else {
			call.err = fmt.Errorf("runner: computing %s aborted before returning", shortKey(key))
		}
		f.release(key, call)
		if r != nil {
			panic(r)
		}
	}()
	call.val, call.err = fn()
	finished = true
	f.release(key, call)
	return call.val, false, call.err
}

// release retires a finished call, so later callers compute afresh, and wakes
// its waiters.
func (f *Inflight[V]) release(key string, call *inflightCall[V]) {
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(call.done)
}
