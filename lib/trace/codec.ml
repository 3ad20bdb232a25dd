(* The hot decode loops (a submitted trace's records, a trace file's
   records) run through [varint_from] and [read_record]: top-level
   functions over a mutable cursor, so a record allocates nothing, and
   the source's [fill] closure runs only when the window runs dry. *)

exception Malformed of int * string

exception Truncated of int

(* -- writing -- *)

let add_varint buf v =
  if v < 0 then invalid_arg "Codec.add_varint: negative value";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr ((!v land 0x7F) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let add_i64 buf bits =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF))
  done

let add_f64 buf v = add_i64 buf (Int64.bits_of_float v)

let add_crc buf crc =
  let v = Crc32.finalize crc in
  for i = 0 to 3 do
    Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

(* -- trace records -- *)

let max_addr = max_int lsr 2

let kind_tag = function Trace.Fetch -> 0 | Trace.Read -> 1 | Trace.Write -> 2

let record ~addr ~kind =
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Codec.record: address %d outside 0..%d" addr max_addr);
  (addr lsl 2) lor kind_tag kind

let record_valid r = r land 3 <> 3

let record_addr r = r lsr 2

let record_kind r = match r land 3 with 0 -> Trace.Fetch | 1 -> Trace.Read | _ -> Trace.Write

let bad_record = "bad kind tag 3"

(* -- reading -- *)

type cursor = {
  buf : Bytes.t;
  mutable pos : int;
  mutable limit : int;
  mutable base : int;
  mutable crc : int;
  mutable crc_pos : int;
  fill : Bytes.t -> int -> int -> int;
}

let no_fill _ _ _ = 0

let of_string ?(pos = 0) s =
  if pos < 0 || pos > String.length s then invalid_arg "Codec.of_string";
  (* never written: [no_fill] stores nothing *)
  { buf = Bytes.unsafe_of_string s; pos; limit = String.length s; base = 0; crc = Crc32.init;
    crc_pos = pos; fill = no_fill }

let reader ?(window = 65536) fill =
  { buf = Bytes.create window; pos = 0; limit = 0; base = 0; crc = Crc32.init; crc_pos = 0;
    fill }

let offset c = c.base + c.pos

let available c = c.limit - c.pos

let fold_crc c =
  c.crc <- Crc32.update_bytes c.crc c.buf c.crc_pos (c.pos - c.crc_pos);
  c.crc_pos <- c.pos

(* Replace the spent window with the source's next bytes; [false] at
   the end of the source. *)
let refill c =
  fold_crc c;
  c.base <- c.base + c.limit;
  c.pos <- 0;
  c.crc_pos <- 0;
  c.limit <- 0;
  if c.fill == no_fill then false
  else begin
    c.limit <- c.fill c.buf 0 (Bytes.length c.buf);
    c.limit > 0
  end

let at_end c = c.pos >= c.limit && not (refill c)

let byte c =
  if c.pos >= c.limit && not (refill c) then raise (Truncated (offset c));
  let b = Char.code (Bytes.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

(* LEB128, at most 63 value bits: an overwide or sign-flipping value is
   damage, never a wrapped negative length or address. *)
let rec varint_from c start shift acc =
  if shift > 56 then raise (Malformed (start, "varint wider than 63 bits"));
  if c.pos >= c.limit && not (refill c) then raise (Truncated (offset c));
  let b = Char.code (Bytes.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if acc < 0 then raise (Malformed (start, "varint overflows the address space"))
  else if b < 0x80 then acc
  else varint_from c start (shift + 7) acc

let varint c = varint_from c (offset c) 0 0

let read_record c =
  let start = offset c in
  let r = varint_from c start 0 0 in
  if r land 3 = 3 then raise (Malformed (start, bad_record));
  r

(* The submitted-trace loop lives here so that a record costs one call
   out of this module, [Trace.add], and no allocation. *)
let read_trace c ~count trace =
  for _ = 1 to count do
    let r = read_record c in
    Trace.add trace ~addr:(r lsr 2) ~kind:(record_kind r)
  done

let u32 c =
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (byte c lsl (8 * i))
  done;
  !v

let i64 c =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte c)) (8 * i))
  done;
  !bits

let f64 c = Int64.float_of_bits (i64 c)

(* Exactly [n] bytes. What the window holds is copied; the rest is read
   straight from the source into the result, so a large frame payload
   never passes through the window. *)
let take c n =
  let avail = c.limit - c.pos in
  if n <= avail then begin
    let s = Bytes.sub_string c.buf c.pos n in
    c.pos <- c.pos + n;
    s
  end
  else begin
    let out = Bytes.create n in
    Bytes.blit c.buf c.pos out 0 avail;
    c.pos <- c.limit;
    fold_crc c;
    let got = ref avail in
    while !got < n do
      match c.fill out !got (n - !got) with
      | 0 -> raise (Truncated (offset c + !got - avail))
      | k -> got := !got + k
    done;
    c.crc <- Crc32.update_bytes c.crc out avail (n - avail);
    c.base <- c.base + c.limit + (n - avail);
    c.pos <- 0;
    c.limit <- 0;
    c.crc_pos <- 0;
    Bytes.unsafe_to_string out
  end

(* -- framing: magic | version | ... | CRC-32 LE footer -- *)

let expect_magic c magic =
  String.iter
    (fun expected ->
      let at = offset c in
      if Char.unsafe_chr (byte c) <> expected then raise (Malformed (at, "bad magic")))
    magic

let expect_version c ~what version =
  let at = offset c in
  let v = byte c in
  if v <> version then raise (Malformed (at, Printf.sprintf "unsupported %s version %d" what v))

(* The footer covers every byte the cursor consumed since it was made,
   so it is read, not folded in. *)
let check_crc c =
  fold_crc c;
  let computed = Crc32.finalize c.crc in
  let at = offset c in
  let stored = if available c >= 4 then u32 c else u32 (of_string (take c 4)) in
  if stored <> computed then
    raise
      (Malformed (at, Printf.sprintf "CRC mismatch (stored %08x, computed %08x)" stored computed))

let frame ~header payload =
  let buf = Buffer.create (String.length header + String.length payload + 14) in
  Buffer.add_string buf header;
  add_varint buf (String.length payload);
  let crc = Crc32.update_string (Crc32.update_string Crc32.init (Buffer.contents buf)) payload in
  Buffer.add_string buf payload;
  add_crc buf crc;
  Buffer.contents buf

(* A 10M-reference trace frames to ~50 MB: generous, but a corrupt or
   hostile length cannot make a reader allocate without bound. *)
let max_payload = 256 * 1024 * 1024

let frame_payload c =
  let len = varint c in
  if len > max_payload then
    raise
      (Malformed
         (offset c, Printf.sprintf "payload of %d bytes exceeds the %d limit" len max_payload));
  let payload = take c len in
  check_crc c;
  payload

(* -- shared payload layouts -- *)

type cache_key = { fingerprint : int64; method_tag : int; domains : int; max_level : int }

let add_cache_key buf k =
  add_i64 buf k.fingerprint;
  add_varint buf k.method_tag;
  add_varint buf k.domains;
  add_varint buf (k.max_level + 1)

let cache_key c =
  let fingerprint = i64 c in
  let method_tag = varint c in
  let domains = varint c in
  let max_level = varint c - 1 in
  { fingerprint; method_tag; domains; max_level }

let add_stats buf (s : Stats.t) =
  add_varint buf s.Stats.n;
  add_varint buf s.Stats.n_unique;
  add_varint buf s.Stats.address_bits;
  add_varint buf s.Stats.max_misses

let stats c =
  let n = varint c in
  let n_unique = varint c in
  let address_bits = varint c in
  let max_misses = varint c in
  { Stats.n; n_unique; address_bits; max_misses }
