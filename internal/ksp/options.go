package ksp

import (
	"fmt"
	"strconv"
)

// SetOption configures the solver through PETSc-style string options, the
// option database the LISI adapter translates its parameter vocabulary
// into (core.KSPComponent.configure).
// Recognized keys: ksp_type, pc_type, ksp_rtol, ksp_atol, ksp_max_it,
// ksp_gmres_restart, ksp_richardson_scale.
func (k *KSP) SetOption(key, value string) error {
	switch key {
	case "ksp_type":
		return k.SetType(value)
	case "pc_type":
		return k.SetPCType(value)
	case "ksp_rtol":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("ksp: option %s: bad value %q", key, value)
		}
		k.rtol = v
	case "ksp_atol":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("ksp: option %s: bad value %q", key, value)
		}
		k.atol = v
	case "ksp_max_it":
		v, err := strconv.Atoi(value)
		if err != nil || v <= 0 {
			return fmt.Errorf("ksp: option %s: bad value %q", key, value)
		}
		k.maxIts = v
	case "ksp_gmres_restart":
		v, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("ksp: option %s: bad value %q", key, value)
		}
		return k.SetRestart(v)
	case "ksp_richardson_scale":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("ksp: option %s: bad value %q", key, value)
		}
		return k.SetDamping(v)
	default:
		return fmt.Errorf("ksp: unknown option %q", key)
	}
	return nil
}
