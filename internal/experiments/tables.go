package experiments

import (
	"stindex/internal/datagen"
)

// Table1Row is one dataset column of Table I.
type Table1Row struct {
	Family string // "random" or "railway"
	Size   int
	Stats  datagen.DatasetStats
}

// Table1 regenerates Table I: statistics of the random and railway
// datasets at every size.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	for _, family := range []string{"random", "railway"} {
		cfg.printf("Table I — %s datasets\n", family)
		cfg.printf("%-28s", "")
		for _, n := range cfg.Sizes {
			cfg.printf("%12dk", n/1000)
		}
		cfg.printf("\n")
		var stats []datagen.DatasetStats
		for _, n := range cfg.Sizes {
			var err error
			var s datagen.DatasetStats
			switch family {
			case "random":
				o, e := cfg.randomDataset(n)
				s, err = datagen.Stats(o), e
			case "railway":
				o, e := cfg.railwayDataset(n)
				s, err = datagen.Stats(o), e
			}
			if err != nil {
				return nil, err
			}
			stats = append(stats, s)
			rows = append(rows, Table1Row{Family: family, Size: n, Stats: s})
		}
		cfg.printf("%-28s", "Total Objects")
		for _, s := range stats {
			cfg.printf("%13d", s.TotalObjects)
		}
		cfg.printf("\n%-28s", "Objects Per Instant (Avg.)")
		for _, s := range stats {
			cfg.printf("%13.2f", s.ObjectsPerInstant)
		}
		cfg.printf("\n%-28s", "Total Segments")
		for _, s := range stats {
			cfg.printf("%13d", s.TotalSegments)
		}
		cfg.printf("\n%-28s", "Object Lifetime (Avg.)")
		for _, s := range stats {
			cfg.printf("%13.1f", s.AvgLifetime)
		}
		cfg.printf("\n%-28s", "Object Extent (%)")
		for _, s := range stats {
			cfg.printf("  %5.2f-%-5.2f", s.MinExtent*100, s.MaxExtent*100)
		}
		cfg.printf("\n\n")
	}
	return rows, nil
}

// Table2Row is one query set of Table II.
type Table2Row struct {
	Set         datagen.QuerySetName
	Cardinality int
	MinExtent   float64
	MaxExtent   float64
	MinDuration int64
	MaxDuration int64
}

// Table2 regenerates Table II: the parameters of the six standard query
// sets, verified against a generated instance of each.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	cfg.printf("Table II — snapshot and range query sets\n")
	cfg.printf("%-16s %12s %14s %10s\n", "Set", "Cardinality", "Extents (%)", "Duration")
	var rows []Table2Row
	for _, set := range datagen.StandardQuerySets {
		qcfg, err := datagen.StandardQueryConfig(set, horizon, cfg.Seed)
		if err != nil {
			return nil, err
		}
		qcfg.Count = cfg.Queries
		qs, err := datagen.Queries(qcfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Set:         set,
			Cardinality: len(qs),
			MinExtent:   qcfg.MinExtent,
			MaxExtent:   qcfg.MaxExtent,
			MinDuration: qcfg.MinDuration,
			MaxDuration: qcfg.MaxDuration,
		})
		cfg.printf("%-16s %12d %6.2f-%-7.2f %4d-%-5d\n",
			set, len(qs), qcfg.MinExtent*100, qcfg.MaxExtent*100, qcfg.MinDuration, qcfg.MaxDuration)
	}
	cfg.printf("\n")
	return rows, nil
}
