package utcsu

// interruptUnit (ITU) maps the chip's many interrupt sources onto the
// three output pins INTN (network), INTT (timer) and INTA (application),
// each individually maskable (paper §3.3). The NTI's CPLD further folds
// the three pins into the M-Module's single vectorized interrupt; that
// part lives in package nti.
type interruptUnit struct {
	enabled [numIntLines]bool
	pending [numIntLines]bool
	handler func(line IntLine)
}

// OnInterrupt installs the pin-change handler (the NTI's CPLD, or a test).
func (u *UTCSU) OnInterrupt(fn func(line IntLine)) {
	u.intr.handler = fn
}

// EnableInt unmasks a line; a pending latched interrupt is delivered
// immediately.
func (u *UTCSU) EnableInt(line IntLine, on bool) {
	iu := &u.intr
	iu.enabled[line] = on
	if on && iu.pending[line] {
		iu.pending[line] = false
		if iu.handler != nil {
			iu.handler(line)
		}
	}
}

func (iu *interruptUnit) raise(line IntLine) {
	if !iu.enabled[line] {
		iu.pending[line] = true
		return
	}
	if iu.handler != nil {
		iu.handler(line)
	}
}
