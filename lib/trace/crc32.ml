(* Built eagerly at module initialisation: a [Lazy.t] here can be forced
   by two domains at once (a forwarder and a health poll in [dse route]),
   and the loser raises [CamlinternalLazy.Undefined]. A plain array is
   immutable after initialisation and safe to read from any domain. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let init = 0xFFFFFFFF

let finalize crc = (crc lxor 0xFFFFFFFF) land 0xFFFFFFFF

let update_bytes crc b off len =
  let crc = ref crc in
  for i = off to off + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let update_string crc s = update_bytes crc (Bytes.unsafe_of_string s) 0 (String.length s)

let digest_string s = finalize (update_string init s)
