package sim

import "testing"

func TestParseTime(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Time
		ok   bool
	}{
		{"20us", Micros(20), true},
		{"20µs", Micros(20), true},
		{"1.5ms", Micros(1500), true},
		{"2s", Seconds(2), true},
		{"4000", 4000, true},
		{"0", 0, true},
		{"1e15", MaxSpecTime, true},
		{"1e16", 0, false},
		{"-1us", 0, false},
		{"NaN", 0, false},
		{"Infms", 0, false},
		{"", 0, false},
		{"us", 0, false},
		{"5m", 0, false},
	} {
		got, err := ParseTime(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseTime(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for d, want := range map[Time]string{
		Millis(3): "3ms", Micros(1500): "1500us", Micros(20): "20us", 4001: "4001", 0: "0us",
	} {
		if got := d.SpecString(); got != want {
			t.Errorf("Time(%d).SpecString() = %q, want %q", d, got, want)
		}
	}
}

// FuzzParseTime fuzzes the duration grammar the -faults and -migrate
// specs share. Properties: ParseTime never panics, every accepted
// duration is in [0, MaxSpecTime], and its canonical SpecString form
// re-parses to the identical value and renders identically — the part
// of both spec round trips that is about durations.
func FuzzParseTime(f *testing.F) {
	for _, seed := range []string{
		"", "0", "20us", "20µs", "1.5ms", "2s", "4000", "1e15", "1e16", "1e14us",
		"0.0005us", "-1", "NaN", "Inf", "s", "ms", "µs", "1e-320s", "0x1p10", "1_000us",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseTime(s)
		if err != nil {
			return
		}
		if d < 0 || d > MaxSpecTime {
			t.Fatalf("ParseTime(%q) = %d, outside [0, %d]", s, d, MaxSpecTime)
		}
		canon := d.SpecString()
		again, err := ParseTime(canon)
		if err != nil || again != d {
			t.Fatalf("round trip of %q: %d -> %q -> %d, %v", s, d, canon, again, err)
		}
		if again.SpecString() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, again.SpecString())
		}
	})
}
