package linesvc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
)

// rawServer binds name for a process that is not a line service: on its
// own goroutine it accepts one connection and sends out verbatim.
func rawServer(t *testing.T, name string, out []byte) *kernel.Kernel {
	t.Helper()
	k := kernel.New(mac.NewPolicy(mac.NewSIDTable()), mac.NewFileContexts("default_t"))
	p := k.NewProc(kernel.ProcSpec{UID: 0, Label: "raw_t"})
	lfd, err := p.BindAbstract(name)
	if err != nil {
		t.Fatal(err)
	}
	wake := make(chan struct{}, 1)
	if err := p.Notify(lfd, wake); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(lfd, 1); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-wake
		fd, err := p.Accept(lfd)
		if err == nil {
			_, err = p.Send(fd, out)
		}
		if err != nil {
			t.Error(err)
		}
	}()
	return k
}

// TestDialRequiresAdmission: a peer whose first line is not the admission
// line is not a line service, and Dial says so.
func TestDialRequiresAdmission(t *testing.T) {
	k := rawServer(t, "raw", []byte(`{"ok":true}`+"\n"))
	if _, err := Dial(k, "raw", "client_t"); !errors.Is(err, ErrNotAdmitted) {
		t.Fatalf("Dial = %v, want ErrNotAdmitted", err)
	}
}

// TestReadLineCap: the client caps a line as the server does, so a peer
// that streams past MaxLine without a newline cannot grow its buffer.
func TestReadLineCap(t *testing.T) {
	out := append([]byte(admitLine+"\n"), bytes.Repeat([]byte{'a'}, MaxLine+1)...)
	c, err := Dial(rawServer(t, "raw", out), "raw", "client_t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadLine(5 * time.Second); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("ReadLine = %v, want ErrLineTooLong", err)
	}
	if len(c.in.buf) > MaxLine+1 {
		t.Fatalf("client buffered %d bytes, cap is %d", len(c.in.buf), MaxLine+1)
	}
}
