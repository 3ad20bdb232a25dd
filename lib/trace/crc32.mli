(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

    Seals every binary format in the project (see {!Codec}): the writer
    folds every byte before the footer into a running digest and appends
    it, so any single-byte corruption or truncation is detected
    deterministically on read. The running state is an [int] holding a
    32-bit value. *)

(** Initial running state. *)
val init : int

(** [finalize crc] is the 32-bit digest of the bytes folded so far. *)
val finalize : int -> int

(** [update_bytes crc b off len] folds in [len] bytes of [b] from [off]. *)
val update_bytes : int -> Bytes.t -> int -> int -> int

(** [update_string crc s] folds in a whole string. *)
val update_string : int -> string -> int

(** [digest_string s] is the digest of a whole string. *)
val digest_string : string -> int
