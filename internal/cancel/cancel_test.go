package cancel

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilTokenNeverCancelled(t *testing.T) {
	var tok *Token
	if tok.Cancelled() {
		t.Fatal("nil token reported cancelled")
	}
	if tok.Err() != nil || tok.Cause() != nil {
		t.Fatal("nil token reported a cause")
	}
	tok.Cancel(errors.New("x")) // must not panic
}

func TestForBackgroundIsNil(t *testing.T) {
	if For(context.Background()) != nil {
		t.Fatal("For(Background) should be nil — uncancellable")
	}
	if For(nil) != nil {
		t.Fatal("For(nil) should be nil")
	}
}

func TestManualCancel(t *testing.T) {
	tok := New()
	if tok.Cancelled() {
		t.Fatal("fresh token cancelled")
	}
	cause := errors.New("boom")
	tok.Cancel(cause)
	if !tok.Cancelled() {
		t.Fatal("token not cancelled after Cancel")
	}
	if !errors.Is(tok.Cause(), cause) {
		t.Fatalf("cause = %v, want %v", tok.Cause(), cause)
	}
	// First cause is sticky.
	tok.Cancel(errors.New("later"))
	if !errors.Is(tok.Cause(), cause) {
		t.Fatalf("cause overwritten: %v", tok.Cause())
	}
}

func TestManualCancelNilCause(t *testing.T) {
	tok := New()
	tok.Cancel(nil)
	if !errors.Is(tok.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", tok.Err())
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	tok := For(ctx)
	if tok == nil {
		t.Fatal("For returned nil for a cancellable context")
	}
	if tok.Cancelled() {
		t.Fatal("cancelled before deadline")
	}
	<-ctx.Done()
	if !tok.Cancelled() {
		t.Fatal("not cancelled after deadline")
	}
	if !errors.Is(tok.Cause(), context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", tok.Cause())
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tok := For(ctx)
	cancel()
	if !tok.Cancelled() {
		t.Fatal("not cancelled after context cancel")
	}
	if !errors.Is(tok.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", tok.Err())
	}
}

func TestConcurrentChecks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tok := For(ctx)
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					tok.Cancelled()
					tok.Cause()
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	if !tok.Cancelled() {
		t.Fatal("not cancelled")
	}
	close(stop)
}

// TestReason: a stopped evaluation always surfaces a non-nil error — the
// token's cause when it has one, context.Canceled otherwise.
func TestReason(t *testing.T) {
	var nilTok *Token
	if err := nilTok.Reason(); !errors.Is(err, context.Canceled) {
		t.Errorf("nil token: Reason = %v, want context.Canceled", err)
	}
	if err := New().Reason(); !errors.Is(err, context.Canceled) {
		t.Errorf("untripped token: Reason = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if err := For(ctx).Reason(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: Reason = %v, want context.DeadlineExceeded", err)
	}
}
