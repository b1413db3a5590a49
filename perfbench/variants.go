package main

import (
	"fmt"

	"photoloop/internal/albireo"
	"photoloop/internal/explore"
	"photoloop/internal/sweep"
)

// albireoBase resolves a sweep's Albireo base the way the sweep engine
// does: the conservative default with the base's scaling applied.
func albireoBase(b *sweep.AlbireoBase) (albireo.Config, error) {
	cfg := albireo.Default(albireo.Conservative)
	if b != nil && b.Scaling != "" {
		sc, err := albireo.ParseScaling(b.Scaling)
		if err != nil {
			return cfg, err
		}
		cfg.Scaling = sc
	}
	return cfg, nil
}

// setAlbireo applies one axis value for the Albireo levers the
// benchmark's workloads sweep.
func setAlbireo(c *albireo.Config, param string, v any) error {
	num := func() (int, error) {
		switch n := v.(type) {
		case int:
			return n, nil
		case float64:
			return int(n), nil
		}
		return 0, fmt.Errorf("axis %s: %v is not a number", param, v)
	}
	switch param {
	case "scaling":
		s, _ := v.(string)
		sc, err := albireo.ParseScaling(s)
		if err != nil {
			return err
		}
		c.Scaling = sc
		return nil
	case "weight_reuse":
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("axis %s: %v is not a bool", param, v)
		}
		c.WeightReuse = b
		return nil
	}
	n, err := num()
	if err != nil {
		return err
	}
	switch param {
	case "clusters":
		c.Clusters = n
	case "pixel_lanes":
		c.PixelLanes = n
	case "output_lanes":
		c.OutputLanes = n
	case "or_lanes":
		c.ORLanes = n
	default:
		return fmt.Errorf("axis %s is not indexed by the benchmark", param)
	}
	return nil
}

// addVariants indexes every architecture of the cross product of axes
// over base (first axis most significant, as the sweep engine walks it).
func (x *archIndex) addVariants(base albireo.Config, params []string, values [][]any) error {
	var walk func(i int, c albireo.Config) error
	walk = func(i int, c albireo.Config) error {
		if i == len(params) {
			return x.addAlbireo(c)
		}
		for _, v := range values[i] {
			next := c
			if err := setAlbireo(&next, params[i], v); err != nil {
				return err
			}
			if err := walk(i+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, base)
}

// addSweep indexes a sweep spec's Albireo variants and workloads.
func (x *archIndex) addSweep(sp sweep.Spec) error {
	base, err := albireoBase(sp.Base.Albireo)
	if err != nil {
		return err
	}
	params := make([]string, len(sp.Axes))
	values := make([][]any, len(sp.Axes))
	for i, ax := range sp.Axes {
		params[i], values[i] = ax.Param, ax.Values
	}
	if err := x.addVariants(base, params, values); err != nil {
		return err
	}
	for _, w := range sp.Workloads {
		if err := x.addNetwork(w.Network, max(1, w.Batch)); err != nil {
			return err
		}
	}
	return nil
}

// addExploreAxes indexes every lattice point of explore axes over base.
func (x *archIndex) addExploreAxes(base albireo.Config, axes []explore.Axis) error {
	params := make([]string, len(axes))
	values := make([][]any, len(axes))
	for i, ax := range axes {
		params[i] = ax.Param
		if ax.Values != nil {
			values[i] = ax.Values
			continue
		}
		step := ax.Step
		if step <= 0 {
			step = 1
		}
		for v := *ax.Min; v <= *ax.Max; v += step {
			values[i] = append(values[i], v)
		}
	}
	return x.addVariants(base, params, values)
}
