package simcheck

import (
	"fmt"
	"testing"
)

func TestViolationRendering(t *testing.T) {
	v := New("paging/test", "frame %d freed twice", 9).
		With("space", "array").With("page", int64(213))
	got := v.Error()
	want := "paging/test: frame 9 freed twice space=array page=213"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if v.Oracle != "paging/test" {
		t.Fatalf("oracle = %q", v.Oracle)
	}
}

func TestAsViolation(t *testing.T) {
	v := New("x/y", "boom")
	if got, ok := AsViolation(v); !ok || got != v {
		t.Fatal("direct *Violation not recognized")
	}
	if got, ok := AsViolation(fmt.Errorf("wrap: %w", v)); !ok || got != v {
		t.Fatal("wrapped *Violation not recognized")
	}
	if _, ok := AsViolation("some panic string"); ok {
		t.Fatal("non-violation recognized")
	}
	if _, ok := AsViolation(nil); ok {
		t.Fatal("nil recognized")
	}
}

func TestFailPanicsWithViolation(t *testing.T) {
	defer func() {
		v, ok := AsViolation(recover())
		if !ok || v.Oracle != "a/b" {
			t.Fatalf("recover = %v", v)
		}
	}()
	Fail(New("a/b", "msg"))
	t.Fatal("Fail returned")
}

func TestArming(t *testing.T) {
	if armed.Load() {
		t.Fatal("armed at start")
	}
	SetArmed(true)
	if !On() {
		t.Fatal("On() false while armed")
	}
	SetArmed(false)
	if On() != TagEnabled {
		t.Fatal("On() disagrees with build tag after disarm")
	}
}
