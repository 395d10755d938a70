package core

import (
	"encoding/json"
	"fmt"
	"io"

	"memhier/internal/locality"
)

// workloadJSON is the on-disk schema for a model workload, so users can
// describe their own applications to chc model/opt/advisor without
// writing Go. All fields beyond alpha/beta/gamma are optional.
type workloadJSON struct {
	Name              string  `json:"name"`
	Alpha             float64 `json:"alpha"`
	Beta              float64 `json:"beta"`
	Gamma             float64 `json:"gamma"`
	HitMass           float64 `json:"hit_mass,omitempty"`
	BytesPerItem      float64 `json:"bytes_per_item,omitempty"`
	FootprintItems    float64 `json:"footprint_items,omitempty"`
	ConflictFactor    float64 `json:"conflict_factor,omitempty"`
	RemoteShare       float64 `json:"remote_share,omitempty"`
	CoherenceMissRate float64 `json:"coherence_miss_rate,omitempty"`

	ConflictCurve []struct {
		CapacityItems float64 `json:"capacity_items"`
		Kappa         float64 `json:"kappa"`
	} `json:"conflict_curve,omitempty"`
}

// MarshalJSON encodes the workload in the documented schema.
func (w Workload) MarshalJSON() ([]byte, error) {
	j := workloadJSON{
		Name:              w.Name,
		Alpha:             w.Locality.Alpha,
		Beta:              w.Locality.Beta,
		Gamma:             w.Locality.Gamma,
		HitMass:           w.HitMass,
		BytesPerItem:      w.BytesPerItem,
		FootprintItems:    w.FootprintItems,
		ConflictFactor:    w.ConflictFactor,
		RemoteShare:       w.RemoteShare,
		CoherenceMissRate: w.CoherenceMissRate,
	}
	for _, p := range w.ConflictCurve {
		j.ConflictCurve = append(j.ConflictCurve, struct {
			CapacityItems float64 `json:"capacity_items"`
			Kappa         float64 `json:"kappa"`
		}{p.CapacityItems, p.Kappa})
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes and validates a workload from the documented
// schema.
func (w *Workload) UnmarshalJSON(data []byte) error {
	var j workloadJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("core: decoding workload: %w", err)
	}
	out := Workload{
		Name:              j.Name,
		Locality:          locality.Params{Alpha: j.Alpha, Beta: j.Beta, Gamma: j.Gamma},
		HitMass:           j.HitMass,
		BytesPerItem:      j.BytesPerItem,
		FootprintItems:    j.FootprintItems,
		ConflictFactor:    j.ConflictFactor,
		RemoteShare:       j.RemoteShare,
		CoherenceMissRate: j.CoherenceMissRate,
	}
	for _, p := range j.ConflictCurve {
		out.ConflictCurve = append(out.ConflictCurve, ConflictPoint{
			CapacityItems: p.CapacityItems, Kappa: p.Kappa,
		})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*w = out
	return nil
}

// ReadWorkload decodes one JSON workload description from r.
func ReadWorkload(r io.Reader) (Workload, error) {
	var w Workload
	dec := json.NewDecoder(r)
	if err := dec.Decode(&w); err != nil {
		return Workload{}, err
	}
	return w, nil
}

// WriteWorkload encodes the workload as indented JSON.
func WriteWorkload(w io.Writer, wl Workload) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wl)
}
