package deadexport_test

import (
	"testing"

	"memhier/internal/lint/analysistest"
	"memhier/internal/lint/deadexport"
)

func TestDeadexport(t *testing.T) {
	analysistest.Run(t, "testdata/src/internal", deadexport.Analyzer)
}

func TestDeadexportExemptsTestHelpers(t *testing.T) {
	analysistest.Run(t, "testdata/src/exempt/internal", deadexport.Analyzer)
}

func TestDeadexportIgnoresPublicPackages(t *testing.T) {
	analysistest.Run(t, "testdata/src/public", deadexport.Analyzer)
}
