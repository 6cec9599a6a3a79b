package match

import "unsafe"

// CompareExampleSets exports the string-keyed alignment oracle to the
// external gate tests in package match_test.
var CompareExampleSets = compareSets

// GridCellBytes is the size of one dense-grid cell, for the external
// gates' allocation budgets.
const GridCellBytes = int(unsafe.Sizeof(cell{}))
