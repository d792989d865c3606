package study

// Hooks for the external test package (study_test), whose tests import
// packages that import study, such as integrity.
var (
	UpdateGolden     = updateGolden
	GoldenPath       = goldenPath
	DetWorkers       = detWorkers
	CompareLines     = compareLines
	ReadGolden       = readGolden
	UpdateGoldenKeys = updateGoldenKeys
	DetParams        = detParams
	Fig5Grid         = fig5Grid
	FaultsGrid       = faultsGrid
)
