package keycheck

import "strconv"

// Config is a flat memo-key case: one covered knob, one omitted knob,
// and one hook, which no key can hold, so it is a finding too.
type Config struct {
	Entries int
	Ways    int
	Deny    func() bool
}

func (c Config) Key() (string, error) { // want `Config.Key omits field Config.Ways from the key` `Config.Key omits field Config.Deny from the key`
	return "cfg:" + strconv.Itoa(c.Entries), nil
}

// Inner/Outer exercise nested coverage: the outer key is accountable
// for the nested struct's fields too.
type Inner struct {
	X int
	Y int
}

type Outer struct {
	Name string
	In   Inner
}

func (o Outer) key() string { // want `Outer.key omits field Inner.Y from the key`
	return o.Name + ":" + strconv.Itoa(o.In.X)
}

// Delegating covers the nested struct by calling its key helper; the
// interprocedural closure must see the references and stay quiet.
type Delegating struct {
	Name string
	In   Inner
}

func (d Delegating) key() string {
	return d.Name + ":" + d.In.frag()
}

func (i Inner) frag() string {
	return strconv.Itoa(i.X) + "/" + strconv.Itoa(i.Y)
}

// NotAKey has key-ish names with the wrong shapes (parameters, wrong
// results); no exhaustiveness is demanded of them.
type NotAKey struct {
	A int
	B int
}

func (n NotAKey) Key(salt string) (string, error) {
	return salt, nil
}

func (n NotAKey) key() (string, error) {
	return "", nil
}
