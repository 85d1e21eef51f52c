package store

import "fmt"

// CheckCells checks every shard's cell index against its rows: each row's
// (cell, pos) points back at the row, each member's key is the coarse key of
// its row's residues and names the member's cell, and the cell sizes sum to
// the shard's row count.
func (s *Scan) CheckCells() error {
	for si := range s.tab.shards {
		sh := &s.tab.shards[si]
		sh.mu.RLock()
		err := s.tab.checkCells(sh)
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

func (t *resTable) checkCells(sh *tableShard) error {
	for row := range sh.meta.rows {
		m := sh.row(row)
		if int(m.cell) >= len(sh.cells) || int(m.pos) >= len(sh.cells[m.cell].rows) || sh.cells[m.cell].rows[m.pos] != int32(row) {
			return fmt.Errorf("row %d (%q) points at cell %d pos %d, which does not hold it", row, m.id, m.cell, m.pos)
		}
	}
	span, dim := t.line.IntervalSpan(), t.dimension()
	members := 0
	for c := range sh.cells {
		cl := &sh.cells[c]
		if len(cl.keys) != len(cl.rows) {
			return fmt.Errorf("cell %d: %d keys beside %d rows", c, len(cl.keys), len(cl.rows))
		}
		members += len(cl.rows)
		for pos, row := range cl.rows {
			if row < 0 || int(row) >= sh.meta.rows {
				return fmt.Errorf("cell %d pos %d: row %d of %d", c, pos, row, sh.meta.rows)
			}
			res := sh.mat.liftRow(int(row), dim, span, nil)
			for i, v := range res {
				if v < 0 {
					res[i] = v + span
				}
			}
			key := t.coarse.keyOf(res)
			if cl.keys[pos] != key || int(key&t.coarse.cellMask) != c {
				return fmt.Errorf("cell %d pos %d: key %#x, row %d's key %#x names cell %d", c, pos, cl.keys[pos], row, key, key&t.coarse.cellMask)
			}
		}
	}
	if members != sh.meta.rows {
		return fmt.Errorf("cells hold %d members, shard %d rows", members, sh.meta.rows)
	}
	return nil
}
