package core

// SetMemoOff makes every shape-memo lookup miss, so each union runs the
// canonicalizer as it did before the memo existed.
func SetMemoOff(off bool) { memoOff = off }
