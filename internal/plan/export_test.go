package plan

// RandomWorkflow hands the package's random DAG builder to the external
// oracle tests (package plan_test), which need the workload corpora too and
// so cannot live inside the package.
var RandomWorkflow = randomWorkflow
