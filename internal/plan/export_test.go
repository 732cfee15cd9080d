package plan

import "boolcube/internal/comm"

// Lowered returns the schedules p has lowered so far, without lowering.
func Lowered(p *Plan) []*comm.Schedule { return p.schedules }
