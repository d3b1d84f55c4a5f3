package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("expected error for non-integer")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0, 0.5")
	if err != nil || len(got) != 2 || got[1] != 0.5 {
		t.Errorf("parseFloats = %v, %v", got, err)
	}
	if _, err := parseFloats("a"); err == nil {
		t.Error("expected error for non-float")
	}
}

func TestRunExperiments(t *testing.T) {
	if err := runE6("1,4", "0,0.1", 4, 2000, 1); err != nil {
		t.Errorf("runE6: %v", err)
	}
	if err := runE6b("1,4", "0,0.1", 4, 2000, 1); err != nil {
		t.Errorf("runE6b: %v", err)
	}
	if err := runE4("5,10", 1); err != nil {
		t.Errorf("runE4: %v", err)
	}
	if err := runE6("bad", "0", 4, 100, 1); err == nil {
		t.Error("expected parse error")
	}
	if err := runE4("bad", 1); err == nil {
		t.Error("expected parse error")
	}
}
