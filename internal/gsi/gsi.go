// Package gsi is a Grid Security Infrastructure stand-in.
//
// The original MCS authenticates callers with GSI: X.509 identity
// certificates issued by a certificate authority, short-lived proxy
// credentials delegated from them, and per-connection proof of possession.
// This package reproduces those semantics with Ed25519 keys and a compact
// JSON certificate encoding: a CA issues identity credentials for
// distinguished names, credentials can delegate proxies (chains of any
// depth), and HTTP requests are signed so the server can both verify the
// chain back to a trusted CA and check proof of possession of the leaf key.
package gsi

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Errors returned by verification.
var (
	ErrExpired      = errors.New("gsi: credential expired or not yet valid")
	ErrBadSignature = errors.New("gsi: signature verification failed")
	ErrUntrusted    = errors.New("gsi: chain does not terminate at a trusted CA")
	ErrStale        = errors.New("gsi: request timestamp outside freshness window")
)

// Certificate binds a subject DN to a public key, signed by an issuer.
type Certificate struct {
	Subject   string            `json:"subject"`
	Issuer    string            `json:"issuer"`
	PublicKey ed25519.PublicKey `json:"publicKey"`
	NotBefore time.Time         `json:"notBefore"`
	NotAfter  time.Time         `json:"notAfter"`
	Proxy     bool              `json:"proxy"`
	Signature []byte            `json:"signature"`
}

// tbs returns the canonical to-be-signed bytes of the certificate.
func (c *Certificate) tbs() []byte {
	return []byte(strings.Join([]string{
		c.Subject,
		c.Issuer,
		base64.StdEncoding.EncodeToString(c.PublicKey),
		c.NotBefore.UTC().Format(time.RFC3339),
		c.NotAfter.UTC().Format(time.RFC3339),
		fmt.Sprint(c.Proxy),
	}, "|"))
}

// ValidAt reports whether the certificate's validity window covers t.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// Credential is a certificate chain plus the private key of the leaf.
// Chain[0] is the leaf; the last element is signed by a CA.
type Credential struct {
	Chain      []*Certificate
	PrivateKey ed25519.PrivateKey
}

// DN returns the effective identity: the subject of the first non-proxy
// certificate in the chain, matching GSI's treatment of proxy credentials
// as acting *as* their issuing identity.
func (c *Credential) DN() string {
	for _, cert := range c.Chain {
		if !cert.Proxy {
			return cert.Subject
		}
	}
	if len(c.Chain) > 0 {
		return c.Chain[0].Subject
	}
	return ""
}

// SubjectDN returns the leaf subject (proxies include a /CN=proxy suffix).
func (c *Credential) SubjectDN() string {
	if len(c.Chain) == 0 {
		return ""
	}
	return c.Chain[0].Subject
}

// CA is a certificate authority with a self-signed root.
type CA struct {
	Root *Certificate
	key  ed25519.PrivateKey
}

// NewCA creates a certificate authority for the given DN with a 10-year root.
func NewCA(dn string) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate CA key: %w", err)
	}
	root := &Certificate{
		Subject:   dn,
		Issuer:    dn,
		PublicKey: pub,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(10 * 365 * 24 * time.Hour),
	}
	root.Signature = ed25519.Sign(priv, root.tbs())
	return &CA{Root: root, key: priv}, nil
}

// Issue creates an identity credential for subject, valid for validity.
func (ca *CA) Issue(subject string, validity time.Duration) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate key: %w", err)
	}
	cert := &Certificate{
		Subject:   subject,
		Issuer:    ca.Root.Subject,
		PublicKey: pub,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  time.Now().Add(validity),
	}
	cert.Signature = ed25519.Sign(ca.key, cert.tbs())
	return &Credential{Chain: []*Certificate{cert}, PrivateKey: priv}, nil
}

// Delegate creates a proxy credential signed by c, as gsi proxy-init does.
// The proxy's subject is the delegator's subject with a /CN=proxy component
// appended, and its validity is clamped to the delegator's.
func (c *Credential) Delegate(validity time.Duration) (*Credential, error) {
	if len(c.Chain) == 0 {
		return nil, errors.New("gsi: cannot delegate from empty credential")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gsi: generate proxy key: %w", err)
	}
	parent := c.Chain[0]
	notAfter := time.Now().Add(validity)
	if notAfter.After(parent.NotAfter) {
		notAfter = parent.NotAfter
	}
	cert := &Certificate{
		Subject:   parent.Subject + "/CN=proxy",
		Issuer:    parent.Subject,
		PublicKey: pub,
		NotBefore: time.Now().Add(-time.Minute),
		NotAfter:  notAfter,
		Proxy:     true,
	}
	cert.Signature = ed25519.Sign(c.PrivateKey, cert.tbs())
	return &Credential{
		Chain:      append([]*Certificate{cert}, c.Chain...),
		PrivateKey: priv,
	}, nil
}

// TrustStore holds the CA roots a verifier accepts.
type TrustStore struct {
	mu    sync.RWMutex
	roots map[string]ed25519.PublicKey // issuer DN -> key
}

// NewTrustStore returns a trust store containing the given CA roots.
func NewTrustStore(roots ...*Certificate) *TrustStore {
	ts := &TrustStore{roots: make(map[string]ed25519.PublicKey)}
	for _, r := range roots {
		ts.Add(r)
	}
	return ts
}

// Add trusts an additional CA root.
func (ts *TrustStore) Add(root *Certificate) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.roots[root.Subject] = root.PublicKey
}

// VerifyChain validates a certificate chain (leaf first) at time now:
// every certificate within its validity window, each signed by the next,
// and the final one signed by a trusted CA. It returns the effective DN.
func (ts *TrustStore) VerifyChain(chain []*Certificate, now time.Time) (string, error) {
	if len(chain) == 0 {
		return "", errors.New("gsi: empty certificate chain")
	}
	for i, cert := range chain {
		if !cert.ValidAt(now) {
			return "", fmt.Errorf("%w: %s", ErrExpired, cert.Subject)
		}
		var issuerKey ed25519.PublicKey
		if i+1 < len(chain) {
			issuerKey = chain[i+1].PublicKey
			if cert.Issuer != chain[i+1].Subject {
				return "", fmt.Errorf("gsi: chain broken: %q issued by %q, next subject %q",
					cert.Subject, cert.Issuer, chain[i+1].Subject)
			}
		} else {
			ts.mu.RLock()
			issuerKey = ts.roots[cert.Issuer]
			ts.mu.RUnlock()
			if issuerKey == nil {
				return "", fmt.Errorf("%w: issuer %q", ErrUntrusted, cert.Issuer)
			}
		}
		if !ed25519.Verify(issuerKey, cert.tbs(), cert.Signature) {
			return "", fmt.Errorf("%w: certificate %q", ErrBadSignature, cert.Subject)
		}
		// Only proxy certificates may be issued by non-CA certificates.
		if i+1 < len(chain) && !cert.Proxy {
			return "", fmt.Errorf("gsi: non-proxy certificate %q issued by end entity", cert.Subject)
		}
	}
	cred := &Credential{Chain: chain}
	return cred.DN(), nil
}

// Request-signing headers.
const (
	headerChain     = "X-Grid-Cert-Chain"
	headerTimestamp = "X-Grid-Timestamp"
	headerSignature = "X-Grid-Signature"
)

// maxClockSkew bounds how old or future a signed request may be.
const maxClockSkew = 5 * time.Minute

// signingBytes binds the signature to method, path, time and body digest.
func signingBytes(method, path, timestamp string, body []byte) []byte {
	digest := sha256.Sum256(body)
	return []byte(method + "\n" + path + "\n" + timestamp + "\n" +
		base64.StdEncoding.EncodeToString(digest[:]))
}

// Sign is a request-signing function for use as mcswire.Client.Sign.
func (c *Credential) Sign(req *http.Request, body []byte) error {
	chain, err := json.Marshal(c.Chain)
	if err != nil {
		return fmt.Errorf("gsi: encode chain: %w", err)
	}
	path := req.URL.Path
	if path == "" {
		path = "/" // net/http serves requests for the empty path as "/"
	}
	ts := time.Now().UTC().Format(time.RFC3339)
	sig := ed25519.Sign(c.PrivateKey, signingBytes(req.Method, path, ts, body))
	req.Header.Set(headerChain, base64.StdEncoding.EncodeToString(chain))
	req.Header.Set(headerTimestamp, ts)
	req.Header.Set(headerSignature, base64.StdEncoding.EncodeToString(sig))
	return nil
}

// Verifier authenticates signed requests against a trust store; its
// Authenticate method is an mcswire.Config.Authenticate.
type Verifier struct {
	Trust *TrustStore
	// Now allows tests to control the clock; defaults to time.Now.
	Now func() time.Time
}

// Authenticate verifies the certificate chain and request signature,
// returning the caller's effective DN.
func (v *Verifier) Authenticate(r *http.Request, body []byte) (string, error) {
	chainB64 := r.Header.Get(headerChain)
	if chainB64 == "" {
		return "", errors.New("gsi: request not signed")
	}
	chainJSON, err := base64.StdEncoding.DecodeString(chainB64)
	if err != nil {
		return "", fmt.Errorf("gsi: decode chain: %w", err)
	}
	var chain []*Certificate
	if err := json.Unmarshal(chainJSON, &chain); err != nil {
		return "", fmt.Errorf("gsi: parse chain: %w", err)
	}
	now := time.Now()
	if v.Now != nil {
		now = v.Now()
	}
	dn, err := v.Trust.VerifyChain(chain, now)
	if err != nil {
		return "", err
	}
	tsStr := r.Header.Get(headerTimestamp)
	ts, err := time.Parse(time.RFC3339, tsStr)
	if err != nil {
		return "", fmt.Errorf("gsi: bad timestamp: %w", err)
	}
	if d := now.Sub(ts); d > maxClockSkew || d < -maxClockSkew {
		return "", ErrStale
	}
	sig, err := base64.StdEncoding.DecodeString(r.Header.Get(headerSignature))
	if err != nil {
		return "", fmt.Errorf("gsi: decode signature: %w", err)
	}
	if !ed25519.Verify(chain[0].PublicKey, signingBytes(r.Method, r.URL.Path, tsStr, body), sig) {
		return "", ErrBadSignature
	}
	return dn, nil
}
