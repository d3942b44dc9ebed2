package grid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseMatpower reads a Matpower-style case description: the assignments
// mpc.baseMVA, mpc.bus, mpc.gen, mpc.branch and mpc.gencost in MATLAB
// matrix syntax. Comments (%), semicolons and newlines are handled as in
// Matpower case files; fields and functions outside this set are ignored,
// so real case files load unchanged.
func ParseMatpower(r io.Reader) (*Case, error) {
	c := &Case{Name: "matpower-case"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var (
		section string
		rows    [][]float64
		collect = map[string][][]float64{}
	)
	flush := func() {
		if section != "" {
			collect[section] = rows
		}
		section, rows = "", nil
	}
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "%"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "function") {
			parts := strings.Fields(line)
			if n := len(parts); n >= 2 {
				c.Name = parts[n-1]
			}
			continue
		}
		if i := strings.Index(line, "="); i >= 0 && strings.HasPrefix(line, "mpc.") {
			flush()
			name := strings.TrimSpace(line[4:i])
			rest := strings.TrimSpace(line[i+1:])
			switch name {
			case "baseMVA":
				v, err := strconv.ParseFloat(strings.TrimSuffix(rest, ";"), 64)
				if err != nil {
					return nil, fmt.Errorf("grid: bad baseMVA %q: %v", rest, err)
				}
				c.BaseMVA = v
				continue
			case "version":
				continue
			case "bus", "gen", "branch", "gencost":
				section = name
				rest = strings.TrimPrefix(rest, "[")
				line = rest
			default:
				continue // unknown field, e.g. bus_name
			}
		}
		if section == "" {
			continue
		}
		done := false
		if i := strings.Index(line, "]"); i >= 0 {
			line, done = line[:i], true
		}
		for _, rowTxt := range strings.Split(line, ";") {
			fields := strings.Fields(strings.ReplaceAll(rowTxt, ",", " "))
			if len(fields) == 0 {
				continue
			}
			row := make([]float64, len(fields))
			for k, f := range fields {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("grid: bad number %q in mpc.%s: %v", f, section, err)
				}
				row[k] = v
			}
			rows = append(rows, row)
		}
		if done {
			flush()
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := buildFromTables(c, collect); err != nil {
		return nil, err
	}
	return c, c.Normalize()
}

func buildFromTables(c *Case, t map[string][][]float64) error {
	busRows, ok := t["bus"]
	if !ok {
		return fmt.Errorf("grid: case has no mpc.bus table")
	}
	for _, r := range busRows {
		if len(r) < 13 {
			return fmt.Errorf("grid: bus row needs 13 columns, got %d", len(r))
		}
		c.Buses = append(c.Buses, Bus{
			ID: int(r[0]), Type: BusType(r[1]), Pd: r[2], Qd: r[3],
			Gs: r[4], Bs: r[5], Vm: r[7], Va: r[8], BaseKV: r[9],
			Vmax: r[11], Vmin: r[12],
		})
	}
	genRows := t["gen"]
	for _, r := range genRows {
		if len(r) < 10 {
			return fmt.Errorf("grid: gen row needs 10 columns, got %d", len(r))
		}
		c.Gens = append(c.Gens, Gen{
			Bus: int(r[0]), Pg: r[1], Qg: r[2], Qmax: r[3], Qmin: r[4],
			Vg: r[5], Status: r[7] != 0, Pmax: r[8], Pmin: r[9],
		})
	}
	for _, r := range t["branch"] {
		if len(r) < 11 {
			return fmt.Errorf("grid: branch row needs 11 columns, got %d", len(r))
		}
		c.Branches = append(c.Branches, Branch{
			From: int(r[0]), To: int(r[1]), R: r[2], X: r[3], B: r[4],
			RateA: r[5], Ratio: r[8], Shift: r[9], Status: r[10] != 0,
		})
	}
	for i, r := range t["gencost"] {
		if i >= len(c.Gens) {
			break
		}
		if len(r) < 5 || r[0] != 2 {
			return fmt.Errorf("grid: only polynomial (model 2) gencost supported, row %d", i)
		}
		n := int(r[3])
		coef := r[4:]
		if len(coef) < n {
			return fmt.Errorf("grid: gencost row %d promises %d coefficients, has %d", i, n, len(coef))
		}
		var pc PolyCost
		switch n {
		case 1:
			pc.C0 = coef[0]
		case 2:
			pc.C1, pc.C0 = coef[0], coef[1]
		case 3:
			pc.C2, pc.C1, pc.C0 = coef[0], coef[1], coef[2]
		default:
			return fmt.Errorf("grid: gencost degree %d not supported (max quadratic)", n-1)
		}
		c.Gens[i].Cost = pc
	}
	return nil
}
