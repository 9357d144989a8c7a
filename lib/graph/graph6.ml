(* graph6: the vertex count is encoded as one char (n <= 62) or as
   '~' followed by three chars (n <= 258047); then the upper triangle
   of the adjacency matrix, in column order (x_{0,1}, x_{0,2},
   x_{1,2}, x_{0,3}, ...), packed big-endian six bits per char, each
   offset by 63. *)

let encode g =
  let n = Graph.num_vertices g in
  let buf = Buffer.create (8 + (n * n / 12)) in
  if n <= 62 then Buffer.add_char buf (Char.chr (n + 63))
  else if n <= 258047 then begin
    Buffer.add_char buf '~';
    Buffer.add_char buf (Char.chr (((n lsr 12) land 63) + 63));
    Buffer.add_char buf (Char.chr (((n lsr 6) land 63) + 63));
    Buffer.add_char buf (Char.chr ((n land 63) + 63))
  end
  else invalid_arg "Graph6.encode: graph too large";
  let bits = ref 0 in
  let count = ref 0 in
  let flush_partial () =
    if !count > 0 then begin
      Buffer.add_char buf (Char.chr ((!bits lsl (6 - !count)) + 63));
      bits := 0;
      count := 0
    end
  in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      bits := (!bits lsl 1) lor (if Graph.adjacent g i j then 1 else 0);
      incr count;
      if !count = 6 then begin
        Buffer.add_char buf (Char.chr (!bits + 63));
        bits := 0;
        count := 0
      end
    done
  done;
  flush_partial ();
  Buffer.contents buf

let decode s =
  let len = String.length s in
  if len = 0 then invalid_arg "Graph6.decode: empty string";
  let byte i =
    if i >= len then invalid_arg "Graph6.decode: truncated input";
    let c = Char.code s.[i] in
    if c < 63 || c > 126 then invalid_arg "Graph6.decode: invalid character";
    c - 63
  in
  let n, start =
    if s.[0] = '~' then begin
      if len >= 2 && s.[1] = '~' then
        invalid_arg "Graph6.decode: 8-byte sizes not supported"
      else ((byte 1 lsl 12) lor (byte 2 lsl 6) lor byte 3, 4)
    end
    else (byte 0, 1)
  in
  let needed = (n * (n - 1) / 2 + 5) / 6 in
  if len - start <> needed then
    invalid_arg "Graph6.decode: wrong payload length";
  let pos = ref 0 in
  let bit () =
    let c = byte (start + (!pos / 6)) in
    let b = (c lsr (5 - (!pos mod 6))) land 1 in
    incr pos;
    b
  in
  Graph.init n (fun add ->
      for j = 1 to n - 1 do
        for i = 0 to j - 1 do
          if bit () = 1 then add i j
        done
      done)
