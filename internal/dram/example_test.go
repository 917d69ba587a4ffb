package dram_test

import (
	"fmt"

	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
)

// Example_openPagePolicy shows the row-buffer behaviour the controller's
// open-page policy exploits: the first access to a row activates it, the
// second hits the open row, and an access to a different row of the same
// bank conflicts.
func Example_openPagePolicy() {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
	m := dram.NewModule(g, dram.DDR2_667(64*sim.Millisecond))

	// Access fills a caller-owned result in place.
	var r1, r2, r3 dram.AccessResult
	a := dram.Address{RowID: dram.RowID{Bank: 0, Row: 5}, Column: 0}
	m.Access(0, a, false, &r1)
	a.Column = 8
	m.Access(r1.Done, a, false, &r2)
	b := dram.Address{RowID: dram.RowID{Bank: 0, Row: 9}, Column: 0}
	m.Access(r2.Done, b, false, &r3)

	fmt.Printf("first:  hit=%v conflict=%v\n", r1.RowHit, r1.Conflict)
	fmt.Printf("second: hit=%v conflict=%v\n", r2.RowHit, r2.Conflict)
	fmt.Printf("third:  hit=%v conflict=%v\n", r3.RowHit, r3.Conflict)
	// Output:
	// first:  hit=false conflict=false
	// second: hit=true conflict=false
	// third:  hit=false conflict=true
}

// Example_refreshKinds contrasts the two refresh command styles of
// section 3: CBR uses the module-internal counter, RAS-only takes an
// explicit row address (what Smart Refresh needs).
func Example_refreshKinds() {
	g := dram.Geometry{
		Channels: 1, Ranks: 1, Banks: 2, Rows: 8, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := dram.NewModule(g, dram.DDR2_667(64*sim.Millisecond))

	// Three CBR refreshes walk rows 0, 1, 2 on their own.
	// One result is reused: each refresh overwrites it.
	var res dram.RefreshResult
	var rows []int
	var t sim.Time
	for i := 0; i < 3; i++ {
		m.RefreshNextCBR(t, dram.BankID{Bank: 0}, &res)
		rows = append(rows, res.Row.Row)
		t = res.Done
	}
	fmt.Println("CBR rows:", rows)

	// RAS-only refresh targets exactly the row the controller names.
	m.RefreshRow(t, dram.RowID{Bank: 1, Row: 6}, &res)
	fmt.Printf("RAS-only: row %d, kind %v\n", res.Row.Row, res.Kind)
	// Output:
	// CBR rows: [0 1 2]
	// RAS-only: row 6, kind RAS-only
}

// ExampleGeometry_TotalRows ties the Table 1 geometry to the section 4.7
// counter count.
func ExampleGeometry_TotalRows() {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 4, Rows: 16384, Columns: 2048,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18,
	}
	fmt.Println(g.TotalRows(), "counters needed")
	// Output:
	// 131072 counters needed
}
