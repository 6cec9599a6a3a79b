package match

// CompareExampleSets exports the string-keyed alignment oracle to the
// external gate tests in package match_test.
var CompareExampleSets = compareSets
