package db

import (
	"strings"
	"testing"
)

func TestPostJoinPlanAttachedAndExecutable(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL("SELECT RESULTDB PRESERVING" + listing1[len("\nSELECT"):])
	if err != nil {
		t.Fatal(err)
	}
	if res.PostJoinPlan == nil {
		t.Fatal("RDBRP result must carry a plan")
	}
	if res.PostJoinPlan.Empty() {
		t.Error("plan for a 3-relation query must not be empty")
	}
	if s := res.PostJoinPlan.String(); !strings.Contains(s, "post-join on") {
		t.Errorf("plan String = %q", s)
	}
	set, err := ExecutePostJoinPlan(res)
	if err != nil {
		t.Fatal(err)
	}
	single, err := d.QuerySQL(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumRows() != single.First().NumRows() {
		t.Errorf("plan execution rows = %d, want %d", set.NumRows(), single.First().NumRows())
	}
}

func TestPostJoinPlanAbsentForRDB(t *testing.T) {
	d := paperExample(t)
	res, err := d.QuerySQL(strings.Replace(listing1, "SELECT", "SELECT RESULTDB", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.PostJoinPlan != nil {
		t.Error("plain RESULTDB must not carry a plan")
	}
	if _, err := ExecutePostJoinPlan(res); err == nil {
		t.Error("executing a missing plan should fail")
	}
}

func TestPostJoinPlanNilHelpers(t *testing.T) {
	var p *PostJoinPlan
	if !p.Empty() {
		t.Error("nil plan is empty")
	}
	if p.String() != "<none>" {
		t.Errorf("nil plan String = %q", p.String())
	}
}
