// IDLwrapper: declaring a data source the way the paper's §3 describes.
// The wrapper implementor writes a CORBA-IDL subset interface with the
// cardinality section (statistics methods, Figure 4) and a cost section
// (exported rules, Figure 8), declares the statistics of Figure 6 by
// hand, loads rows, and registers the wrapper. The mediator's estimates
// then come from the declared rules, blended with its generic model.
//
// Run with: go run ./examples/idlwrapper
package main

import (
	"fmt"
	"log"

	"disco"
)

// employeeIDL is the paper's running example: Figures 3 and 4 plus a cost
// section in the Figure 8 style.
const employeeIDL = `
interface Employee {
  attribute Long salary;
  attribute String Name;
  short age();

  cardinality extent(out long CountObject, out long TotalSize, out long ObjectSize);
  cardinality attribute(in String AttributeName, out Boolean Indexed,
                        out Long CountDistinct, out Constant Min, out Constant Max);

  cost {
    # Figure 8: specific formulas for this source. The sequential pass
    # over the legacy file costs 0.5 ms per record.
    scan(Employee) {
      TotalTime = Employee.CountObject * 0.5;
    }
    select(Employee, salary = V) {
      CountObject = Employee.CountObject * selectivity(salary, V);
      TotalSize   = CountObject * Employee.ObjectSize;
      TotalTime   = Employee.CountObject * 0.5 + CountObject * 0.1;
    }
  }
};
`

func main() {
	m, err := disco.NewMediator(disco.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	w, err := disco.NewStaticWrapper("legacy", employeeIDL)
	if err != nil {
		log.Fatal(err)
	}
	// The hand-written cardinality methods of Figure 6.
	if err := w.DeclareExtent("Employee", disco.ExtentStats{
		CountObject: 10000, TotalSize: 1_200_000, ObjectSize: 120,
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.DeclareAttribute("Employee", "salary", disco.AttributeStats{
		Indexed: true, CountDistinct: 10000,
		Min: disco.Int(1000), Max: disco.Int(30000),
	}); err != nil {
		log.Fatal(err)
	}
	if err := w.DeclareAttribute("Employee", "Name", disco.AttributeStats{
		Indexed: true, CountDistinct: 10000,
		Min: disco.Str("Adiba"), Max: disco.Str("Valduriez"),
	}); err != nil {
		log.Fatal(err)
	}

	// Load the actual records (the declared CountObject describes the
	// full legacy extent; we load a sample here).
	rows := make([]disco.Row, 0, 10000)
	for i := 0; i < 10000; i++ {
		rows = append(rows, disco.Row{
			disco.Int(int64(1000 + i*2)),
			disco.Str(fmt.Sprintf("employee-%04d", i)),
		})
	}
	if err := w.Load("Employee", rows); err != nil {
		log.Fatal(err)
	}

	if err := m.Register(w); err != nil {
		log.Fatal(err)
	}

	out, err := m.Explain(`SELECT Name FROM Employee WHERE salary = 15000`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	res, err := m.Query(`SELECT Name FROM Employee WHERE salary = 15000`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d rows in %.1f virtual ms\n", len(res.Rows), res.ElapsedMS)
	for i, row := range res.Rows {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", row[0].AsString())
	}
}
