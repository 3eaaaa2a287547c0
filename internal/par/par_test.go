package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSerialStopsAtFirstError(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var ran []int
		boom := errors.New("boom")
		err := Run(workers, 10, func(i int) error {
			ran = append(ran, i)
			if i == 3 || i == 6 {
				return fmt.Errorf("index %d: %w", i, boom)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3: boom" {
			t.Fatalf("workers %d: err = %v, want index 3's error", workers, err)
		}
		if fmt.Sprint(ran) != "[0 1 2 3]" {
			t.Fatalf("workers %d: ran %v, want [0 1 2 3] in order and nothing after the failure", workers, ran)
		}
	}
}

// TestRunParallelLowestError makes the lowest failing index finish last:
// index 2 blocks until index 7 has failed, so a first-error-wins pool
// would report 7 (or 5). Run must still report 2, and run every index.
func TestRunParallelLowestError(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		const n = 10
		var counts [n]atomic.Int32
		sevenFailed := make(chan struct{})
		err := Run(workers, n, func(i int) error {
			counts[i].Add(1)
			switch i {
			case 2:
				select {
				case <-sevenFailed:
				case <-time.After(10 * time.Second):
					return errors.New("index 7 never ran")
				}
				return errors.New("index 2")
			case 5:
				return errors.New("index 5")
			case 7:
				close(sevenFailed)
				return errors.New("index 7")
			}
			return nil
		})
		if err == nil || err.Error() != "index 2" {
			t.Fatalf("workers %d: err = %v, want index 2", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers %d: index %d ran %d times, want exactly once", workers, i, c)
			}
		}
	}
}

// TestRunClampsWorkers checks workers > n: with n == 1 the pool clamps to
// one worker and runs inline on the caller's goroutine; with n == 3 all
// three indices are in flight at once and each runs exactly once.
func TestRunClampsWorkers(t *testing.T) {
	inline := false
	if err := Run(8, 1, func(int) error {
		buf := make([]byte, 64<<10)
		inline = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "TestRunClampsWorkers")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !inline {
		t.Fatal("Run(8, 1, fn) started a goroutine; workers > n must clamp to the inline case")
	}

	var counts [3]atomic.Int32
	var arrived sync.WaitGroup
	arrived.Add(3)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	if err := Run(100, 3, func(i int) error {
		counts[i].Add(1)
		arrived.Done()
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("indices never ran concurrently")
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, c)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Run(workers, 0, func(int) error {
			t.Fatalf("workers %d: fn called with n == 0", workers)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: err = %v", workers, err)
		}
	}
}
