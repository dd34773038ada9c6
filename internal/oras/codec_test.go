package oras

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unicode/utf8"

	"cloudhpc/internal/jsonl"
)

// fuzzManifest builds a manifest from fuzz inputs. The low two bits of
// shape give the layer count; the others choose nil against empty
// layers, manifest and layer annotations, and a second annotation key.
func fuzzManifest(artifactType, mediaType, digest string, size int64, key, value string, shape uint8) Manifest {
	m := Manifest{ArtifactType: artifactType}
	if n := int(shape & 3); n > 0 || shape&4 != 0 {
		m.Layers = make([]Descriptor, n)
	}
	ann := func() map[string]string {
		a := map[string]string{key: value}
		if shape&32 != 0 {
			a["org.opencontainers.image.title"] = digest
		}
		return a
	}
	for i := range m.Layers {
		m.Layers[i] = Descriptor{MediaType: mediaType, Digest: Digest(digest), Size: size + int64(i)}
		if shape&16 != 0 {
			m.Layers[i].Annotations = ann()
		}
	}
	if shape&8 != 0 {
		m.Annotations = ann()
	}
	return m
}

// FuzzManifestCodec checks the hand-written manifest codec against
// encoding/json, its reference:
//
//  1. encode writes json.Marshal's bytes;
//  2. whatever the decoder accepts, json.Unmarshal accepts too, with a
//     deeply equal manifest (the decoder may reject more);
//  3. decoding what encode wrote gives back the manifest, for valid
//     UTF-8 strings.
func FuzzManifestCodec(f *testing.F) {
	title := "org.opencontainers.image.title"
	unit := Manifest{ArtifactType: "application/vnd.cloudhpc.unit.draws.v1", Layers: []Descriptor{
		{MediaType: "application/octet-stream", Digest: "sha256:0123", Size: 4096, Annotations: map[string]string{title: "runs.jsonl"}},
		{MediaType: "application/octet-stream", Digest: "sha256:4567", Size: 152, Annotations: map[string]string{title: "unit.json"}},
	}}
	bundle := unit
	bundle.Annotations = map[string]string{"cloudhpc.seed": "2025", "cloudhpc.runs": "2725"}
	add := func(artifactType, mediaType, digest string, size int64, key, value string, shape uint8, data string) {
		f.Add(artifactType, mediaType, digest, size, key, value, shape, []byte(data))
	}
	add("t", "application/octet-stream", "sha256:ab", 12, title, "runs.jsonl", 1|16, string(unit.encode()))
	add("t", "m", "d", 0, "cloudhpc.seed", "2025", 2|8|16|32, string(bundle.encode()))
	add("<b>&amp;</b>", "line\u2028para\u2029", "\x00\x1f\"\\", -1, "<k>", "&v", 3|8|16, `{"artifactType":"\u003cb\u003e\u0026"}`)
	add("bad \xff utf8", "\xed\xa0\x80", "\U0001F600", 1<<62, "\xff", "\xfe", 1|8, `{"artifactType":"\ud800","layers":[]}`)
	add("", "", "", 0, "", "", 0, "null")
	add("", "", "", 0, "", "", 4, "{}")
	add("x", "", "", 0, "", "", 0, `{"layers":[]}`)
	add("x", "", "", 0, "", "", 8, `{"artifactType":"x"}`)
	add("x", "", "", 0, "a", "b", 1, `{"artifactType":"x","layers":null,"annotations":{}}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{}],"layers":[{"size":1}]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[null]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{"size":1.0}]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{"size":9223372036854775808}]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{"annotations":{"a":"1","a":"2"},"annotations":{"b":"3"}}]}`)
	add("x", "", "", 0, "a", "b", 1, `{"annotations":{"\u0061\"":"x","":""}}`)
	add("x", "", "", 0, "a", "b", 1, `{"annotations":{"a":null}}`)
	add("x", "", "", 0, "a", "b", 1, `{"annotations":{"a":{"b":"c"}}}`)
	add("x", "", "", 0, "a", "b", 1, `{"ArtifactType":"x","Layers":[]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{"mediaType":"m"]}`)
	add("x", "", "", 0, "a", "b", 1, `{"layers":[{"mediaType":"m"}}`)
	add("x", "", "", 0, "a", "b", 1, `{"artifactType":"x"} {}`)
	add("x", "", "", 0, "a", "b", 1, "{\n  \"artifactType\": \"x\",\n  \"layers\": [\n    {\"digest\": \"d\"}\n  ]\n}\n")
	f.Fuzz(func(t *testing.T, artifactType, mediaType, digest string, size int64, key, value string, shape uint8, data []byte) {
		m := fuzzManifest(artifactType, mediaType, digest, size, key, value, shape)

		// 1. Encoder bytes.
		got := m.encode()
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode:\n got  %s\n want %s", got, want)
		}

		// 3. Round trip.
		valid := true
		for _, s := range []string{artifactType, mediaType, digest, key, value} {
			valid = valid && utf8.ValidString(s)
		}
		if valid {
			var back Manifest
			if err := jsonl.Decode(got, &back); err != nil || !reflect.DeepEqual(back, m) {
				t.Fatalf("round trip of %s: %v, %+v", got, err, back)
			}
		}

		// 2. Decoder strictness.
		var mine Manifest
		if err := jsonl.Decode(data, &mine); err != nil {
			return
		}
		var ref Manifest
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(mine, ref) {
			t.Fatalf("decode of %q:\n got  %+v\n json %+v", data, mine, ref)
		}
	})
}

// BenchmarkManifestCodec times the encode and decode of a four-layer
// study bundle manifest, the largest the result store writes.
func BenchmarkManifestCodec(b *testing.B) {
	title := "org.opencontainers.image.title"
	m := Manifest{ArtifactType: "application/vnd.cloudhpc.study.bundle.v1",
		Annotations: map[string]string{"cloudhpc.seed": "2025", "cloudhpc.runs": "2725"}}
	for _, name := range []string{"meta.json", "meter.jsonl", "runs.jsonl", "trace.jsonl"} {
		m.Layers = append(m.Layers, Descriptor{MediaType: "application/octet-stream",
			Digest: "sha256:176847a157d27a1aa6684fbdfe214eb67dc358cdda6a8848481fe68d18ffef95", Size: 503917,
			Annotations: map[string]string{title: name}})
	}
	data := m.encode()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var back Manifest
			if err := jsonl.Decode(data, &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
