//! The `snapshot!` macro: every variant kind round-trips, the wire
//! layout is the list order, an unknown tag is `Corrupt` with the
//! type's message, and a short buffer is `Truncated`.

use vip_snap::{snapshot, Reader, SnapError, Snapshot, Writer};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    id: u64,
    flag: bool,
    name: String,
    data: Vec<u8>,
    trail: Vec<u16>,
    shape: Shape,
}

snapshot!(
    /// Attributes and doc comments pass through to the impl.
    struct Record {
        id,
        flag,
        name,
        data: bytes,
        trail,
        shape,
    }
);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Empty,
    Point(u32),
    Pair(u8, Option<u64>),
    Box { w: usize, h: usize },
}

snapshot!(enum Shape, "shape tag" {
    0 => Empty,
    1 => Point(x),
    2 => Pair(a, b),
    7 => Box { w, h },
});

fn encode<T: Snapshot>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.save(&mut w);
    w.into_bytes()
}

fn decode<T: Snapshot>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = Reader::new(bytes);
    let v = T::restore(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[test]
fn every_variant_kind_roundtrips() {
    for shape in [
        Shape::Empty,
        Shape::Point(0xdead_beef),
        Shape::Pair(9, Some(u64::MAX)),
        Shape::Pair(0, None),
        Shape::Box { w: 640, h: 480 },
    ] {
        assert_eq!(decode::<Shape>(&encode(&shape)), Ok(shape));
    }
    let record = Record {
        id: 42,
        flag: true,
        name: "fc-2048x64".into(),
        data: vec![1, 2, 3, 255],
        trail: vec![7, 8],
        shape: Shape::Box { w: 3, h: 4 },
    };
    assert_eq!(decode::<Record>(&encode(&record)), Ok(record));
}

#[test]
fn list_order_is_wire_order() {
    // Tag first, then fields in list order.
    assert_eq!(encode(&Shape::Box { w: 1, h: 2 }), {
        let mut w = Writer::new();
        w.u8(7);
        w.usize(1);
        w.usize(2);
        w.into_bytes()
    });
    // A `bytes` field is a length-prefixed blob — the same bytes as the
    // element-wise `Vec<u8>` encoding.
    let record = Record {
        id: 5,
        flag: false,
        name: "k".into(),
        data: vec![0xaa, 0xbb],
        trail: vec![3],
        shape: Shape::Empty,
    };
    let mut w = Writer::new();
    w.u64(5);
    w.bool(false);
    w.bytes(b"k");
    record.data.save(&mut w);
    w.usize(1);
    w.u16(3);
    w.u8(0);
    assert_eq!(encode(&record), w.into_bytes());
}

#[test]
fn unknown_tag_is_corrupt_with_the_type_message() {
    for tag in [3u8, 4, 6, 8, 255] {
        assert_eq!(
            decode::<Shape>(&[tag]),
            Err(SnapError::Corrupt("shape tag")),
            "tag {tag}"
        );
    }
}

#[test]
fn short_buffer_is_truncated() {
    let bytes = encode(&Shape::Box { w: 1, h: 2 });
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                decode::<Shape>(&bytes[..cut]),
                Err(SnapError::Truncated { .. })
            ),
            "cut at {cut}"
        );
    }
    let record = Record {
        id: 1,
        flag: true,
        name: "abc".into(),
        data: vec![9; 16],
        trail: vec![1, 2, 3],
        shape: Shape::Point(4),
    };
    let bytes = encode(&record);
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                decode::<Record>(&bytes[..cut]),
                Err(SnapError::Truncated { .. })
            ),
            "cut at {cut}"
        );
    }
}
