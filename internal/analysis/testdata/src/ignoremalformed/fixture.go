// Fixture for suppression-comment validation: an ignore without a reason
// and an ignore naming an unknown analyzer are reported as findings.
package ignoremalformed

func missingReason() {
	//lisi:ignore portcontract
	_ = 1
}

func unknownAnalyzer() {
	//lisi:ignore nosuchanalyzer because I said so
	_ = 1
}
