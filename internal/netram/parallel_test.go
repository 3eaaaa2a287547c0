package netram

import (
	"fmt"
	"testing"
)

// TestConnectManyPrefixAndRelease connects a name list whose entry k is
// missing at 1 and 4 workers. Both must return the same connected prefix
// and the same error, and afterwards no mirror may hold a reference on
// a segment past the prefix. The serial case must not probe past the
// missing name at all; the pool case probes every name and must release
// what it connected beyond the prefix.
func TestConnectManyPrefixAndRelease(t *testing.T) {
	const n, k = 8, 3
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("seg%d", i)
	}
	var prefixes [][]string
	var errs []string
	for _, workers := range []int{1, 4} {
		r := newRig(t, 2)
		for _, srv := range r.servers {
			for i, name := range names {
				if i == k {
					continue
				}
				if _, err := srv.Malloc(name, 64); err != nil {
					t.Fatal(err)
				}
			}
		}

		regs, err := r.client.ConnectMany(names, workers)
		if err == nil {
			t.Fatalf("workers %d: missing %q connected without error", workers, names[k])
		}
		var got []string
		for _, reg := range regs {
			got = append(got, reg.Name)
		}
		if len(got) != k {
			t.Fatalf("workers %d: connected %v, want the %d names before the missing one", workers, got, k)
		}
		if len(r.client.regions) != k {
			t.Fatalf("workers %d: client lists %d regions, want %d", workers, len(r.client.regions), k)
		}
		prefixes = append(prefixes, got)
		errs = append(errs, err.Error())

		for m, srv := range r.servers {
			for _, info := range srv.List() {
				want := uint32(0)
				var idx int
				fmt.Sscanf(info.Name, "seg%d", &idx)
				if idx < k {
					want = 1
				}
				if info.Conns != want {
					t.Errorf("workers %d: mirror %d segment %q holds %d reference(s), want %d",
						workers, m, info.Name, info.Conns, want)
				}
			}
			st := srv.Stats()
			wantConnects, wantDisconnects := uint64(k), uint64(0)
			if workers > 1 {
				wantConnects, wantDisconnects = n-1, n-1-k
			}
			if st.Connects != wantConnects || st.Disconnects != wantDisconnects {
				t.Errorf("workers %d: mirror %d saw %d connects / %d disconnects, want %d / %d",
					workers, m, st.Connects, st.Disconnects, wantConnects, wantDisconnects)
			}
		}
	}
	if fmt.Sprint(prefixes[0]) != fmt.Sprint(prefixes[1]) || errs[0] != errs[1] {
		t.Fatalf("serial and pooled ConnectMany disagree: %v %q vs %v %q",
			prefixes[0], errs[0], prefixes[1], errs[1])
	}
}
