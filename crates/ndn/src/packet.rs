//! NDN packets: Interest, Data, and network NACK.
//!
//! Packets are plain structs inside the simulator (links move clones), but
//! every packet can be encoded to and decoded from the NDN v0.3 TLV wire
//! format. The link model charges transmission time by [`Interest::encoded_size`] /
//! [`Data::encoded_size`], and the benches exercise full encode/decode.

use bytes::{BufMut, Bytes, BytesMut};

use crate::crypto::{sha256, HmacSha256, Sha256, DIGEST_LEN};
use crate::name::{Name, NameComponent};
use crate::tlv::{
    nonneg_tlv_size, parse_nonneg, put_nonneg_tlv, put_tlv, put_var_number, tlv_size, types,
    TlvError, TlvReader,
};
use lidc_simcore::time::SimDuration;

/// Default InterestLifetime when none is carried (NDN spec: 4 seconds).
pub const DEFAULT_INTEREST_LIFETIME: SimDuration = SimDuration::from_millis(4000);

/// An Interest packet: a request for named data (or, in LIDC, a semantic
/// compute request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interest {
    /// The requested name.
    pub name: Name,
    /// Whether a Data whose name this name merely prefixes may satisfy it.
    pub can_be_prefix: bool,
    /// Whether cached Data must still be fresh to satisfy it.
    pub must_be_fresh: bool,
    /// Loop-detection nonce.
    pub nonce: Option<u32>,
    /// How long forwarders keep PIT state for this Interest.
    pub lifetime: SimDuration,
    /// Remaining hops; decremented per hop, dropped at zero.
    pub hop_limit: Option<u8>,
    /// Application parameters (LIDC encodes job specs here when they exceed
    /// what fits comfortably in the name).
    pub app_params: Option<Bytes>,
}

impl Interest {
    /// A plain Interest for `name` with spec defaults.
    pub fn new(name: Name) -> Self {
        Interest {
            name,
            can_be_prefix: false,
            must_be_fresh: false,
            nonce: None,
            lifetime: DEFAULT_INTEREST_LIFETIME,
            hop_limit: None,
            app_params: None,
        }
    }

    /// Builder: set CanBePrefix.
    pub fn can_be_prefix(mut self, v: bool) -> Self {
        self.can_be_prefix = v;
        self
    }

    /// Builder: set MustBeFresh.
    pub fn must_be_fresh(mut self, v: bool) -> Self {
        self.must_be_fresh = v;
        self
    }

    /// Builder: set the nonce.
    pub fn with_nonce(mut self, nonce: u32) -> Self {
        self.nonce = Some(nonce);
        self
    }

    /// Builder: set the lifetime.
    pub fn with_lifetime(mut self, lifetime: SimDuration) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Builder: set application parameters.
    pub fn with_app_params(mut self, params: impl Into<Bytes>) -> Self {
        self.app_params = Some(params.into());
        self
    }

    /// Encoded length of this Interest's body (everything inside the outer
    /// INTEREST TLV), computed arithmetically — no buffers.
    fn body_len(&self) -> usize {
        let mut len = tlv_size(types::NAME, name_body_len(&self.name));
        if self.can_be_prefix {
            len += tlv_size(types::CAN_BE_PREFIX, 0);
        }
        if self.must_be_fresh {
            len += tlv_size(types::MUST_BE_FRESH, 0);
        }
        if self.nonce.is_some() {
            len += tlv_size(types::NONCE, 4);
        }
        if self.lifetime != DEFAULT_INTEREST_LIFETIME {
            len += nonneg_tlv_size(types::INTEREST_LIFETIME, self.lifetime.as_millis());
        }
        if self.hop_limit.is_some() {
            len += tlv_size(types::HOP_LIMIT, 1);
        }
        if let Some(params) = &self.app_params {
            len += tlv_size(types::APPLICATION_PARAMETERS, params.len());
        }
        len
    }

    /// Encode to wire format. The output buffer is pre-sized exactly from
    /// the TLV size arithmetic, so encoding performs a single allocation.
    pub fn encode(&self) -> Bytes {
        let body_len = self.body_len();
        let mut out = BytesMut::with_capacity(tlv_size(types::INTEREST, body_len));
        put_var_number(&mut out, types::INTEREST);
        put_var_number(&mut out, body_len as u64);
        put_name_tlv(&mut out, &self.name);
        if self.can_be_prefix {
            put_tlv(&mut out, types::CAN_BE_PREFIX, &[]);
        }
        if self.must_be_fresh {
            put_tlv(&mut out, types::MUST_BE_FRESH, &[]);
        }
        if let Some(nonce) = self.nonce {
            put_tlv(&mut out, types::NONCE, &nonce.to_be_bytes());
        }
        if self.lifetime != DEFAULT_INTEREST_LIFETIME {
            put_nonneg_tlv(&mut out, types::INTEREST_LIFETIME, self.lifetime.as_millis());
        }
        if let Some(h) = self.hop_limit {
            put_tlv(&mut out, types::HOP_LIMIT, &[h]);
        }
        if let Some(params) = &self.app_params {
            put_tlv(&mut out, types::APPLICATION_PARAMETERS, params);
        }
        out.freeze()
    }

    /// Wire size in bytes (used by the link bandwidth model). Pure
    /// arithmetic; does not encode.
    pub fn encoded_size(&self) -> usize {
        tlv_size(types::INTEREST, self.body_len())
    }

    /// Decode from wire format, zero-copy: long name component values and
    /// application parameters are refcounted views into `wire`, not copies
    /// (short values inline). The `Interest` is constructed once, at the
    /// end, from locals — no double-initialization.
    pub fn decode(wire: &Bytes) -> Result<Interest, TlvError> {
        let mut outer = TlvReader::new(wire);
        let body = outer.read_expected(types::INTEREST)?;
        let mut r = TlvReader::new(body);
        let name = decode_name_from(wire, r.read_expected(types::NAME)?)?;
        let mut can_be_prefix = false;
        let mut must_be_fresh = false;
        let mut nonce = None;
        let mut lifetime = DEFAULT_INTEREST_LIFETIME;
        let mut hop_limit = None;
        let mut app_params = None;
        while !r.is_empty() {
            let (typ, value) = r.read_tlv()?;
            match typ {
                types::CAN_BE_PREFIX => can_be_prefix = true,
                types::MUST_BE_FRESH => must_be_fresh = true,
                types::NONCE => {
                    if value.len() != 4 {
                        return Err(TlvError::Malformed("nonce must be 4 bytes"));
                    }
                    nonce = Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
                }
                types::INTEREST_LIFETIME => {
                    lifetime = parse_millis(value)?;
                }
                types::HOP_LIMIT => {
                    if value.len() != 1 {
                        return Err(TlvError::Malformed("hop limit must be 1 byte"));
                    }
                    hop_limit = Some(value[0]);
                }
                types::APPLICATION_PARAMETERS => {
                    app_params = Some(wire.slice_ref(value));
                }
                _ => { /* ignore unrecognised elements (forward compatibility) */ }
            }
        }
        Ok(Interest {
            name,
            can_be_prefix,
            must_be_fresh,
            nonce,
            lifetime,
            hop_limit,
            app_params,
        })
    }
}

/// ContentType of a Data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentType {
    /// Ordinary payload.
    #[default]
    Blob,
    /// A link/delegation object.
    Link,
    /// A public key.
    Key,
    /// An application-level negative acknowledgement (e.g. "no such job").
    Nack,
}

impl ContentType {
    fn code(self) -> u64 {
        match self {
            ContentType::Blob => 0,
            ContentType::Link => 1,
            ContentType::Key => 2,
            ContentType::Nack => 3,
        }
    }

    fn from_code(code: u64) -> ContentType {
        match code {
            1 => ContentType::Link,
            2 => ContentType::Key,
            3 => ContentType::Nack,
            _ => ContentType::Blob,
        }
    }
}

/// Signature flavour carried in SignatureInfo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignatureType {
    /// SHA-256 digest of the signed portion (integrity only).
    #[default]
    DigestSha256,
    /// HMAC-SHA256 with a shared key identified by the KeyLocator.
    HmacWithSha256,
}

impl SignatureType {
    fn code(self) -> u64 {
        match self {
            SignatureType::DigestSha256 => 0,
            SignatureType::HmacWithSha256 => 4,
        }
    }
}

/// A Data packet signature.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Signature {
    /// Flavour.
    pub typ: SignatureType,
    /// Key name for HMAC signatures. Boxed: key locators are rare, and
    /// boxing keeps `Data` (which embeds two otherwise-inline `Name`s)
    /// cheap to move and clone.
    pub key_locator: Option<Box<Name>>,
    /// Signature bytes.
    pub value: Bytes,
}

/// A Data packet: named, signed content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data {
    /// The full data name (may extend the Interest name).
    pub name: Name,
    /// Payload semantics.
    pub content_type: ContentType,
    /// How long caches may serve this object as "fresh".
    pub freshness: Option<SimDuration>,
    /// Name component of the last segment in a segmented object.
    pub final_block_id: Option<NameComponent>,
    /// Payload.
    pub content: Bytes,
    /// Signature over the signed portion.
    pub signature: Signature,
}

impl Data {
    /// Unsigned Data with the given name and content; call [`Data::sign_digest`]
    /// or [`Data::sign_hmac`] (or send as-is, and the forwarder treats it as
    /// digest-signed on encode).
    pub fn new(name: Name, content: impl Into<Bytes>) -> Self {
        Data {
            name,
            content_type: ContentType::Blob,
            freshness: None,
            final_block_id: None,
            content: content.into(),
            signature: Signature::default(),
        }
    }

    /// Builder: content type.
    pub fn with_content_type(mut self, t: ContentType) -> Self {
        self.content_type = t;
        self
    }

    /// Builder: freshness period.
    pub fn with_freshness(mut self, f: SimDuration) -> Self {
        self.freshness = Some(f);
        self
    }

    /// Builder: final block id.
    pub fn with_final_block_id(mut self, c: NameComponent) -> Self {
        self.final_block_id = Some(c);
        self
    }

    /// Encoded length of the MetaInfo body (0 when empty).
    fn meta_info_len(&self) -> usize {
        let mut len = 0;
        if self.content_type != ContentType::Blob {
            len += nonneg_tlv_size(types::CONTENT_TYPE, self.content_type.code());
        }
        if let Some(f) = self.freshness {
            len += nonneg_tlv_size(types::FRESHNESS_PERIOD, f.as_millis());
        }
        if let Some(fbi) = &self.final_block_id {
            len += tlv_size(
                types::FINAL_BLOCK_ID,
                tlv_size(u64::from(fbi.typ()), fbi.value().len()),
            );
        }
        len
    }

    fn put_meta_info(&self, out: &mut impl BufMut) {
        if self.content_type != ContentType::Blob {
            put_nonneg_tlv(out, types::CONTENT_TYPE, self.content_type.code());
        }
        if let Some(f) = self.freshness {
            put_nonneg_tlv(out, types::FRESHNESS_PERIOD, f.as_millis());
        }
        if let Some(fbi) = &self.final_block_id {
            put_var_number(out, types::FINAL_BLOCK_ID);
            put_var_number(
                out,
                tlv_size(u64::from(fbi.typ()), fbi.value().len()) as u64,
            );
            put_tlv(out, u64::from(fbi.typ()), fbi.value());
        }
    }

    /// Encoded length of the SignatureInfo body.
    fn signature_info_len(&self) -> usize {
        let mut len = nonneg_tlv_size(types::SIGNATURE_TYPE, self.signature.typ.code());
        if let Some(kl) = &self.signature.key_locator {
            len += tlv_size(
                types::KEY_LOCATOR,
                tlv_size(types::NAME, name_body_len(kl)),
            );
        }
        len
    }

    fn put_signature_info(&self, out: &mut impl BufMut) {
        put_nonneg_tlv(out, types::SIGNATURE_TYPE, self.signature.typ.code());
        if let Some(kl) = &self.signature.key_locator {
            put_var_number(out, types::KEY_LOCATOR);
            put_var_number(out, tlv_size(types::NAME, name_body_len(kl)) as u64);
            put_name_tlv(out, kl);
        }
    }

    /// Encoded length of the signed portion
    /// (Name .. SignatureInfo, exclusive of SignatureValue).
    fn signed_portion_len(&self) -> usize {
        let mut len = tlv_size(types::NAME, name_body_len(&self.name));
        let meta_len = self.meta_info_len();
        if meta_len > 0 {
            len += tlv_size(types::META_INFO, meta_len);
        }
        len += tlv_size(types::CONTENT, self.content.len());
        len + tlv_size(types::SIGNATURE_INFO, self.signature_info_len())
    }

    /// Write the elements of the signed portion (Name .. SignatureInfo,
    /// exclusive of SignatureValue) to `out`: the wire buffer in
    /// [`Data::encode`], a hasher when signing or verifying.
    fn put_signed_elements(&self, out: &mut impl BufMut) {
        put_name_tlv(out, &self.name);
        let meta_len = self.meta_info_len();
        if meta_len > 0 {
            put_var_number(out, types::META_INFO);
            put_var_number(out, meta_len as u64);
            self.put_meta_info(out);
        }
        put_tlv(out, types::CONTENT, &self.content);
        put_var_number(out, types::SIGNATURE_INFO);
        put_var_number(out, self.signature_info_len() as u64);
        self.put_signature_info(out);
    }

    /// SHA-256 of the signed portion, hashed in place.
    fn signed_digest(&self) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        self.put_signed_elements(&mut h);
        h.finalize()
    }

    /// HMAC-SHA256 of the signed portion under `key`, hashed in place.
    fn signed_mac(&self, key: &[u8]) -> [u8; DIGEST_LEN] {
        let mut mac = HmacSha256::new(key);
        self.put_signed_elements(&mut mac);
        mac.finalize()
    }

    /// Sign with `DigestSha256` (integrity only).
    pub fn sign_digest(mut self) -> Self {
        self.signature = Signature {
            typ: SignatureType::DigestSha256,
            key_locator: None,
            value: Bytes::new(),
        };
        self.signature.value = Bytes::copy_from_slice(&self.signed_digest());
        self
    }

    /// Sign with HMAC-SHA256 under `key`, naming the key `key_name`.
    pub fn sign_hmac(mut self, key_name: Name, key: &[u8]) -> Self {
        self.signature = Signature {
            typ: SignatureType::HmacWithSha256,
            key_locator: Some(Box::new(key_name)),
            value: Bytes::new(),
        };
        self.signature.value = Bytes::copy_from_slice(&self.signed_mac(key));
        self
    }

    /// True when this packet carries a signature value. Unsigned Data
    /// (fresh from [`Data::new`]) never verifies, so the data plane treats
    /// it like a verification failure rather than a special case.
    pub fn is_signed(&self) -> bool {
        !self.signature.value.is_empty()
    }

    /// Deterministically flip one bit of the packet, chosen by `index`
    /// modulo the flippable bit count (content bytes first, then signature
    /// bytes). Models in-flight corruption honestly: the damaged packet
    /// keeps travelling and [`Data::verify`] catches it at the next verify
    /// point. Returns `false` (packet untouched) when there is nothing to
    /// flip — an unsigned, empty-content Data.
    pub fn flip_bit(&mut self, index: u64) -> bool {
        let content_bits = self.content.len() as u64 * 8;
        let total_bits = content_bits + self.signature.value.len() as u64 * 8;
        if total_bits == 0 {
            return false;
        }
        let bit = index % total_bits;
        let flip = |bytes: &Bytes, bit: u64| {
            let mut buf = bytes.to_vec();
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
            Bytes::from(buf)
        };
        if bit < content_bits {
            self.content = flip(&self.content, bit);
        } else {
            self.signature.value = flip(&self.signature.value, bit - content_bits);
        }
        true
    }

    /// Verify the signature: digest recomputation, or HMAC under `key`
    /// (required iff the flavour is HMAC). The signed portion streams from
    /// the packet's fields into the hasher; nothing is copied or allocated.
    pub fn verify(&self, key: Option<&[u8]>) -> bool {
        match self.signature.typ {
            SignatureType::DigestSha256 => self.signature.value.as_ref() == self.signed_digest(),
            SignatureType::HmacWithSha256 => match key {
                Some(key) => self.signature.value.as_ref() == self.signed_mac(key),
                None => false,
            },
        }
    }

    /// Encode to wire format. Unsigned packets are digest-signed on the fly
    /// so the wire is always well-formed. The output buffer is pre-sized
    /// exactly from the TLV size arithmetic: one allocation.
    pub fn encode(&self) -> Bytes {
        if self.signature.value.is_empty() {
            return self.clone().sign_digest().encode();
        }
        let body_len =
            self.signed_portion_len() + tlv_size(types::SIGNATURE_VALUE, self.signature.value.len());
        let mut out = BytesMut::with_capacity(tlv_size(types::DATA, body_len));
        put_var_number(&mut out, types::DATA);
        put_var_number(&mut out, body_len as u64);
        self.put_signed_elements(&mut out);
        put_tlv(&mut out, types::SIGNATURE_VALUE, &self.signature.value);
        out.freeze()
    }

    /// Wire size in bytes. Pure arithmetic; does not encode or hash (an
    /// unsigned packet is accounted exactly as `encode()` will emit it:
    /// digest-signed, which replaces the whole signature — type and key
    /// locator included).
    pub fn encoded_size(&self) -> usize {
        let body_len = if self.signature.value.is_empty() {
            // Mirror the sign_digest() path: DigestSha256, no key locator.
            let mut signed = tlv_size(types::NAME, name_body_len(&self.name));
            let meta_len = self.meta_info_len();
            if meta_len > 0 {
                signed += tlv_size(types::META_INFO, meta_len);
            }
            signed += tlv_size(types::CONTENT, self.content.len());
            signed += tlv_size(
                types::SIGNATURE_INFO,
                nonneg_tlv_size(types::SIGNATURE_TYPE, SignatureType::DigestSha256.code()),
            );
            signed + tlv_size(types::SIGNATURE_VALUE, DIGEST_LEN)
        } else {
            self.signed_portion_len() + tlv_size(types::SIGNATURE_VALUE, self.signature.value.len())
        };
        tlv_size(types::DATA, body_len)
    }

    /// The implicit SHA-256 digest of the whole encoded packet.
    pub fn implicit_digest(&self) -> [u8; DIGEST_LEN] {
        sha256(&self.encode())
    }

    /// The full name: name + implicit digest component.
    pub fn full_name(&self) -> Name {
        self.name
            .clone()
            .child(NameComponent::implicit_digest(self.implicit_digest()))
    }

    /// Decode from wire format, zero-copy: the content, signature value,
    /// and every name component are refcounted views into `wire`.
    pub fn decode(wire: &Bytes) -> Result<Data, TlvError> {
        let mut outer = TlvReader::new(wire);
        let body = outer.read_expected(types::DATA)?;
        let mut r = TlvReader::new(body);
        let name = decode_name_from(wire, r.read_expected(types::NAME)?)?;
        let mut data = Data::new(name, Bytes::new());
        if let Some(meta) = r.read_optional(types::META_INFO)? {
            let mut m = TlvReader::new(meta);
            while !m.is_empty() {
                let (typ, value) = m.read_tlv()?;
                match typ {
                    types::CONTENT_TYPE => {
                        data.content_type = ContentType::from_code(parse_nonneg(value)?);
                    }
                    types::FRESHNESS_PERIOD => {
                        data.freshness = Some(parse_millis(value)?);
                    }
                    types::FINAL_BLOCK_ID => {
                        let mut c = TlvReader::new(value);
                        data.final_block_id = Some(decode_component_from(wire, &mut c)?);
                    }
                    _ => {}
                }
            }
        }
        if let Some(content) = r.read_optional(types::CONTENT)? {
            data.content = wire.slice_ref(content);
        }
        let sig_info = r.read_expected(types::SIGNATURE_INFO)?;
        let mut si = TlvReader::new(sig_info);
        let sig_type = parse_nonneg(si.read_expected(types::SIGNATURE_TYPE)?)?;
        data.signature.typ = match sig_type {
            0 => SignatureType::DigestSha256,
            4 => SignatureType::HmacWithSha256,
            _ => return Err(TlvError::Malformed("unsupported signature type")),
        };
        if let Some(kl) = si.read_optional(types::KEY_LOCATOR)? {
            let mut klr = TlvReader::new(kl);
            let name_body = klr.read_expected(types::NAME)?;
            data.signature.key_locator = Some(Box::new(decode_name_from(wire, name_body)?));
        }
        let sig_value = r.read_expected(types::SIGNATURE_VALUE)?;
        data.signature.value = wire.slice_ref(sig_value);
        Ok(data)
    }
}

/// Reason codes for network NACKs (NDNLPv2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// Downstream congestion.
    Congestion,
    /// Duplicate nonce detected (loop).
    Duplicate,
    /// No route in the FIB.
    NoRoute,
}

impl NackReason {
    /// NDNLPv2 numeric code.
    pub fn code(self) -> u64 {
        match self {
            NackReason::Congestion => 50,
            NackReason::Duplicate => 100,
            NackReason::NoRoute => 150,
        }
    }

    /// Decode a numeric code.
    pub fn from_code(code: u64) -> Option<NackReason> {
        match code {
            50 => Some(NackReason::Congestion),
            100 => Some(NackReason::Duplicate),
            150 => Some(NackReason::NoRoute),
            _ => None,
        }
    }
}

/// A network NACK: the rejected Interest plus a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nack {
    /// Why the Interest was rejected.
    pub reason: NackReason,
    /// The Interest being rejected.
    pub interest: Interest,
}

impl Nack {
    /// Construct a NACK for `interest`.
    pub fn new(reason: NackReason, interest: Interest) -> Self {
        Nack { reason, interest }
    }

    /// Wire size (LP header + reason + Interest).
    pub fn encoded_size(&self) -> usize {
        // NACK header (3) + reason TLV (3) + encapsulated Interest.
        6 + self.interest.encoded_size()
    }
}

/// Any NDN packet moving across a link.
// Variant sizes differ by design: packets move boxed through actor
// mailboxes, so the large `Data` variant is not copied around by value.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// An Interest.
    Interest(Interest),
    /// A Data.
    Data(Data),
    /// A network NACK.
    Nack(Nack),
}

impl Packet {
    /// Wire size in bytes for the link bandwidth model.
    pub fn encoded_size(&self) -> usize {
        match self {
            Packet::Interest(i) => i.encoded_size(),
            Packet::Data(d) => d.encoded_size(),
            Packet::Nack(n) => n.encoded_size(),
        }
    }

    /// The name this packet pertains to.
    pub fn name(&self) -> &Name {
        match self {
            Packet::Interest(i) => &i.name,
            Packet::Data(d) => &d.name,
            Packet::Nack(n) => &n.interest.name,
        }
    }
}

/// Encoded length of the body (component sequence) of a Name TLV.
pub fn name_body_len(name: &Name) -> usize {
    name.components()
        .iter()
        .map(|c| tlv_size(u64::from(c.typ()), c.value().len()))
        .sum()
}

/// Append the body (component sequence) of a Name TLV.
pub fn put_name_body(out: &mut impl BufMut, name: &Name) {
    for c in name.components() {
        put_tlv(out, u64::from(c.typ()), c.value());
    }
}

/// Append a complete Name TLV (header + component sequence).
pub fn put_name_tlv(out: &mut impl BufMut, name: &Name) {
    put_var_number(out, types::NAME);
    put_var_number(out, name_body_len(name) as u64);
    put_name_body(out, name);
}

/// Encode the body (component sequence) of a Name TLV into a fresh,
/// exactly-sized buffer.
pub fn encode_name_body(name: &Name) -> Bytes {
    let mut body = BytesMut::with_capacity(name_body_len(name));
    put_name_body(&mut body, name);
    body.freeze()
}

/// Decode a millisecond NonNegativeInteger, rejecting values past the range
/// of [`SimDuration`] instead of overflowing.
fn parse_millis(value: &[u8]) -> Result<SimDuration, TlvError> {
    parse_nonneg(value)?
        .checked_mul(SimDuration::from_millis(1).as_nanos())
        .map(SimDuration::from_nanos)
        .ok_or(TlvError::Malformed("duration out of range"))
}

#[inline(always)]
fn decode_component_from(wire: &Bytes, r: &mut TlvReader<'_>) -> Result<NameComponent, TlvError> {
    let (typ, value) = r.read_tlv()?;
    let typ = u16::try_from(typ).map_err(|_| TlvError::Malformed("component type too large"))?;
    Ok(NameComponent::view_of(typ, wire, value))
}

/// Decode a Name TLV body (component sequence) found inside `wire`; long
/// component values are zero-copy views into `wire` (short ones inline).
/// `body` must be a sub-slice of `wire`. Allocation-free for names of up to
/// `SMALL_NAME_CAP` components.
pub fn decode_name_from(wire: &Bytes, body: &[u8]) -> Result<Name, TlvError> {
    Name::decode_body_from(wire, body)
}

/// Decode a standalone Name TLV body (component sequence).
pub fn decode_name(body: &Bytes) -> Result<Name, TlvError> {
    decode_name_from(body, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlv::encode_tlv;

    #[test]
    fn out_of_range_durations_are_malformed() {
        // u64::MAX milliseconds overflows SimDuration's nanosecond count.
        let name = encode_tlv(types::NAME, &encode_tlv(0x08, b"a"));
        let huge = encode_tlv(types::INTEREST_LIFETIME, &[0xFF; 8]);
        let interest = encode_tlv(types::INTEREST, &[&name[..], &huge[..]].concat());
        assert!(Interest::decode(&interest).is_err());
        let meta = encode_tlv(types::META_INFO, &encode_tlv(types::FRESHNESS_PERIOD, &[0xFF; 8]));
        let data = encode_tlv(types::DATA, &[&name[..], &meta[..]].concat());
        assert!(Data::decode(&data).is_err());
    }

    #[test]
    fn interest_round_trip_minimal() {
        let i = Interest::new(name!("/ndn/k8s/compute"));
        let wire = i.encode();
        let decoded = Interest::decode(&wire).unwrap();
        assert_eq!(decoded, i);
        assert_eq!(decoded.lifetime, DEFAULT_INTEREST_LIFETIME);
    }

    #[test]
    fn interest_round_trip_full() {
        let i = Interest::new(name!("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"))
            .can_be_prefix(true)
            .must_be_fresh(true)
            .with_nonce(0xDEADBEEF)
            .with_lifetime(SimDuration::from_millis(12_000))
            .with_app_params(&b"srr=SRR2931415"[..]);
        let mut i = i;
        i.hop_limit = Some(32);
        let decoded = Interest::decode(&i.encode()).unwrap();
        assert_eq!(decoded, i);
    }

    #[test]
    fn data_digest_sign_verify_round_trip() {
        let d = Data::new(name!("/ndn/k8s/data/rice/seg=0"), &b"ACGT"[..])
            .with_freshness(SimDuration::from_secs(10))
            .with_final_block_id(NameComponent::segment(41))
            .sign_digest();
        assert!(d.verify(None));
        let decoded = Data::decode(&d.encode()).unwrap();
        assert_eq!(decoded, d);
        assert!(decoded.verify(None));
    }

    #[test]
    fn data_hmac_sign_verify() {
        let key = b"shared-cluster-key";
        let d = Data::new(name!("/ndn/k8s/status/job-1"), &b"Completed"[..])
            .sign_hmac(name!("/keys/cluster-a"), key);
        assert!(d.verify(Some(key)));
        assert!(!d.verify(Some(b"wrong-key")));
        assert!(!d.verify(None), "HMAC without key fails closed");
        let decoded = Data::decode(&d.encode()).unwrap();
        assert_eq!(decoded.signature.key_locator, Some(Box::new(name!("/keys/cluster-a"))));
        assert!(decoded.verify(Some(key)));
    }

    #[test]
    fn tampered_content_fails_verification() {
        let d = Data::new(name!("/a"), &b"payload"[..]).sign_digest();
        let mut tampered = d.clone();
        tampered.content = Bytes::copy_from_slice(b"PAYLOAD");
        assert!(!tampered.verify(None));
    }

    #[test]
    fn flip_bit_breaks_verification_everywhere() {
        let d = Data::new(name!("/a"), &b"payload"[..]).sign_digest();
        let total_bits = (d.content.len() + d.signature.value.len()) as u64 * 8;
        for index in [0, 7, 55, total_bits - 1, total_bits, total_bits + 13] {
            let mut flipped = d.clone();
            assert!(flipped.flip_bit(index));
            assert!(!flipped.verify(None), "bit {index} flipped but still verifies");
            // Flipping the same bit again restores the packet exactly.
            assert!(flipped.flip_bit(index));
            assert_eq!(flipped, d);
        }
    }

    #[test]
    fn flip_bit_on_unflippable_packet_is_a_noop() {
        let mut empty = Data::new(name!("/a"), Bytes::new());
        assert!(!empty.is_signed());
        assert!(!empty.flip_bit(3));
        assert_eq!(empty, Data::new(name!("/a"), Bytes::new()));
        // Signed-empty still has signature bits to flip.
        let mut signed = Data::new(name!("/a"), Bytes::new()).sign_digest();
        assert!(signed.is_signed());
        assert!(signed.flip_bit(3));
        assert!(!signed.verify(None));
    }

    #[test]
    fn encoded_size_matches_encode_for_partial_signatures() {
        // A hand-built signature with an empty value is re-signed by
        // encode() (digest, no key locator); encoded_size must mirror that.
        let mut d = Data::new(name!("/a/b"), &b"payload"[..]);
        d.signature = Signature {
            typ: SignatureType::HmacWithSha256,
            key_locator: Some(Box::new(name!("/keys/k"))),
            value: Bytes::new(),
        };
        assert_eq!(d.encoded_size(), d.encode().len());
        // And the fully-signed forms stay exact too.
        let signed = Data::new(name!("/a/b"), &b"payload"[..])
            .with_freshness(SimDuration::from_secs(1))
            .sign_hmac(name!("/keys/k"), b"secret");
        assert_eq!(signed.encoded_size(), signed.encode().len());
    }

    #[test]
    fn unsigned_data_encodes_as_digest_signed() {
        let d = Data::new(name!("/a/b"), &b"x"[..]);
        let decoded = Data::decode(&d.encode()).unwrap();
        assert_eq!(decoded.signature.typ, SignatureType::DigestSha256);
        assert!(decoded.verify(None));
    }

    #[test]
    fn content_type_round_trip() {
        for ct in [
            ContentType::Blob,
            ContentType::Link,
            ContentType::Key,
            ContentType::Nack,
        ] {
            let d = Data::new(name!("/t"), Bytes::new())
                .with_content_type(ct)
                .sign_digest();
            assert_eq!(Data::decode(&d.encode()).unwrap().content_type, ct);
        }
    }

    #[test]
    fn full_name_carries_implicit_digest() {
        let d = Data::new(name!("/a"), &b"x"[..]).sign_digest();
        let full = d.full_name();
        assert_eq!(full.len(), 2);
        assert_eq!(full.get(1).unwrap().typ(), crate::name::TT_IMPLICIT_DIGEST);
        assert!(d.name.is_prefix_of(&full));
        // Deterministic: same packet, same digest.
        assert_eq!(d.full_name(), d.clone().full_name());
    }

    #[test]
    fn name_body_round_trip_typed_components() {
        let n = name!("/ndn/k8s/data/rice/v=3/seg=7");
        let body = encode_name_body(&n);
        assert_eq!(decode_name(&body).unwrap(), n);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Interest::decode(&Bytes::from_static(b"garbage")).is_err());
        assert!(Data::decode(&Interest::new(name!("/a")).encode()).is_err());
        // Bad nonce width.
        let mut body = BytesMut::new();
        put_tlv(&mut body, types::NAME, &encode_name_body(&name!("/a")));
        put_tlv(&mut body, types::NONCE, &[1, 2]);
        let wire = encode_tlv(types::INTEREST, &body);
        assert_eq!(
            Interest::decode(&wire),
            Err(TlvError::Malformed("nonce must be 4 bytes"))
        );
    }

    #[test]
    fn nack_codes() {
        for r in [NackReason::Congestion, NackReason::Duplicate, NackReason::NoRoute] {
            assert_eq!(NackReason::from_code(r.code()), Some(r));
        }
        assert_eq!(NackReason::from_code(7), None);
        let nack = Nack::new(NackReason::NoRoute, Interest::new(name!("/nowhere")));
        assert!(nack.encoded_size() > nack.interest.encoded_size());
    }

    #[test]
    fn packet_enum_size_and_name() {
        let i = Interest::new(name!("/x"));
        let d = Data::new(name!("/y"), &b"abc"[..]).sign_digest();
        assert_eq!(Packet::Interest(i.clone()).name(), &name!("/x"));
        assert_eq!(Packet::Data(d.clone()).name(), &name!("/y"));
        assert_eq!(Packet::Interest(i.clone()).encoded_size(), i.encoded_size());
        assert!(Packet::Data(d.clone()).encoded_size() > d.content.len());
    }

    #[test]
    fn unknown_elements_are_skipped() {
        // Append an unknown TLV inside an Interest; decode should ignore it.
        let i = Interest::new(name!("/a")).with_nonce(7);
        let wire = i.encode();
        let mut outer = TlvReader::new(&wire);
        let body = outer.read_expected(types::INTEREST).unwrap();
        let mut body = BytesMut::from(body);
        put_tlv(&mut body, 0xFD00, b"future-extension");
        let wire2 = encode_tlv(types::INTEREST, &body);
        let decoded = Interest::decode(&wire2).unwrap();
        assert_eq!(decoded.nonce, Some(7));
    }
}
