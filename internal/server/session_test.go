package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	wfs "repro"
)

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry(0)
	s, err := r.Create("a", "p(x).", wfs.Options{}, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if s.Name != "a" || s.Sys.NumFacts() != 1 {
		t.Errorf("session = %+v", s)
	}
	if _, err := r.Create("a", "q(y).", wfs.Options{}, nil); err == nil {
		t.Errorf("duplicate Create succeeded")
	} else {
		var exists *ErrSessionExists
		if !errors.As(err, &exists) {
			t.Errorf("duplicate Create error = %T", err)
		}
	}
	got, err := r.Get("a")
	if err != nil || got != s {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Errorf("Get of unknown session succeeded")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	if del := r.Delete("a"); del != s {
		t.Errorf("Delete = %v, want the session", del)
	}
	if r.Delete("a") != nil {
		t.Errorf("double Delete reported present")
	}
}

func TestRegistryCompileErrorReleasesName(t *testing.T) {
	r := NewRegistry(1)
	if _, err := r.Create("a", "p(", wfs.Options{}, nil); err == nil {
		t.Fatalf("Create with syntax error succeeded")
	}
	// The failed create must not leak its reservation against the limit.
	if _, err := r.Create("a", "p(x).", wfs.Options{}, nil); err != nil {
		t.Errorf("Create after failed compile: %v", err)
	}
}

func TestRegistryLimit(t *testing.T) {
	r := NewRegistry(2)
	for i := 0; i < 2; i++ {
		if _, err := r.Create(fmt.Sprintf("s%d", i), "p(x).", wfs.Options{}, nil); err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
	}
	_, err := r.Create("s2", "p(x).", wfs.Options{}, nil)
	var full *ErrTooManySessions
	if !errors.As(err, &full) {
		t.Errorf("over-limit Create error = %v", err)
	}
	r.Delete("s0")
	if _, err := r.Create("s2", "p(x).", wfs.Options{}, nil); err != nil {
		t.Errorf("Create after Delete: %v", err)
	}
}

func TestRegistryNameValidation(t *testing.T) {
	r := NewRegistry(0)
	for _, bad := range []string{"", ".", "..", "a/b", "a\nb", "a\x00b", string(make([]byte, 200))} {
		if _, err := r.Create(bad, "p(x).", wfs.Options{}, nil); err == nil {
			t.Errorf("Create(%q) succeeded", bad)
		}
	}
	for _, good := range []string{"a", "my-session.v2", "Ünïcode name"} {
		if _, err := r.Create(good, "p(x).", wfs.Options{}, nil); err != nil {
			t.Errorf("Create(%q): %v", good, err)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("s%d", i%10)
				switch g % 3 {
				case 0:
					r.Create(name, "p(x).", wfs.Options{}, nil)
				case 1:
					if s, err := r.Get(name); err == nil {
						s.Sys.NumFacts()
					}
				default:
					if i%7 == 0 {
						r.Delete(name)
					}
					r.Names()
				}
			}
		}(g)
	}
	wg.Wait()
}
