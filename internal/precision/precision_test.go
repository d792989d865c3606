package precision

import (
	"reflect"
	"testing"
)

func TestNextBatchSchedule(t *testing.T) {
	// Doubling from 16: cumulative 16, 32, 64, ... capped at 100.
	var got []int
	total := 0
	for total < 100 {
		n := NextBatch(total, 16, 100)
		got = append(got, n)
		total += n
	}
	want := []int{16, 16, 32, 36}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch sizes %v, want %v", got, want)
	}
}
