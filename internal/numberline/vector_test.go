package numberline

import (
	"errors"
	"testing"
)

func TestVectorCloneEqual(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatal("clone not equal to original")
	}
	w[0] = 99
	if v.Equal(w) {
		t.Fatal("mutating clone affected equality")
	}
	if v[0] != 1 {
		t.Fatal("mutating clone mutated original")
	}
	if !(Vector(nil)).Equal(Vector{}) {
		t.Error("nil and empty vectors should compare equal")
	}
	if (Vector{1}).Equal(Vector{1, 2}) {
		t.Error("different lengths compared equal")
	}
	if (Vector(nil)).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestValidateVector(t *testing.T) {
	l := small(t)
	if err := l.ValidateVector(Vector{0, 16, -15}); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	if err := l.ValidateVector(nil); !errors.Is(err, ErrEmptyVector) {
		t.Errorf("empty vector: err = %v, want ErrEmptyVector", err)
	}
	if err := l.ValidateVector(Vector{0, 17}); !errors.Is(err, ErrPointOutOfRange) {
		t.Errorf("out-of-range vector: err = %v, want ErrPointOutOfRange", err)
	}
	if err := l.ValidateVector(Vector{-16}); !errors.Is(err, ErrPointOutOfRange) {
		t.Errorf("non-canonical -kav/2: err = %v, want ErrPointOutOfRange", err)
	}
}

func TestChebyshevDist(t *testing.T) {
	l := small(t)
	tests := []struct {
		name string
		x, y Vector
		want int64
	}{
		{name: "identical", x: Vector{1, 2}, y: Vector{1, 2}, want: 0},
		{name: "max coordinate wins", x: Vector{0, 0}, y: Vector{1, 3}, want: 3},
		{name: "wraparound", x: Vector{16, 0}, y: Vector{-15, 0}, want: 1},
		{name: "antipodal", x: Vector{0}, y: Vector{16}, want: 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := l.ChebyshevDist(tt.x, tt.y)
			if err != nil {
				t.Fatalf("ChebyshevDist: %v", err)
			}
			if got != tt.want {
				t.Errorf("ChebyshevDist(%v, %v) = %d, want %d", tt.x, tt.y, got, tt.want)
			}
		})
	}
	if _, err := l.ChebyshevDist(Vector{1}, Vector{1, 2}); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	if _, err := l.ChebyshevDist(Vector{}, Vector{}); !errors.Is(err, ErrEmptyVector) {
		t.Errorf("empty vectors: err = %v, want ErrEmptyVector", err)
	}
}

func TestClose(t *testing.T) {
	l := small(t) // t = 1
	ok, err := l.Close(Vector{0, 5}, Vector{1, 5})
	if err != nil || !ok {
		t.Errorf("Close at distance 1 = (%v, %v), want (true, nil)", ok, err)
	}
	ok, err = l.Close(Vector{0, 5}, Vector{2, 5})
	if err != nil || ok {
		t.Errorf("Close at distance 2 = (%v, %v), want (false, nil)", ok, err)
	}
}
