package gpusim

// StepEveryCycle returns cfg with the cycle-stepper oracle switched on,
// so the external corpus tests can check event skipping and
// fast-forward against it.
func StepEveryCycle(cfg Config) Config {
	cfg.stepEveryCycle = true
	return cfg
}
