package wire

import (
	"time"

	"resultdb/internal/db"
)

// TransferModel converts result-set sizes into transfer times at a fixed
// data transfer rate (DTR), the Section 6.4 methodology: "we assume a DTR of
// 100 Mbps, a speed commonly regarded as reliable for general use".
type TransferModel struct {
	// Mbps is the data transfer rate in megabits per second.
	Mbps float64
}

// DefaultTransfer is the paper's 100 Mbps setting.
var DefaultTransfer = TransferModel{Mbps: 100}

// Duration returns the time to move n bytes at the modeled rate.
func (m TransferModel) Duration(n int) time.Duration {
	if m.Mbps <= 0 {
		return 0
	}
	seconds := float64(n) * 8 / (m.Mbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// ResultDuration returns the transfer time of a whole result under the
// Section 6.1 size accounting (datatype widths for numerics, string lengths
// for text), which is what the paper's Table 3 transfer column uses.
func (m TransferModel) ResultDuration(r *db.Result) time.Duration {
	return m.Duration(r.WireSize())
}
