//===- persist/WarmCache.cpp - On-disk warm-start cache -------------------===//

#include "persist/WarmCache.h"

#include "frontend/Fingerprint.h"
#include "persist/Serial.h"
#include "semantics/Analyzer.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <functional>
#include <limits>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>

using namespace syntox;
using namespace syntox::persist;

namespace {

constexpr size_t HeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

//===----------------------------------------------------------------------===//
// Program identity
//===----------------------------------------------------------------------===//

/// The hash a file is checked against (see WarmCache.h): the program's
/// token-stream identity, then the shape of the equations this build
/// lowered it to. Equal hashes mean the same equations over the same
/// node, element and slot indices, so a file's rows can be addressed by
/// position.
uint64_t programHash(const SuperGraph &G) {
  uint64_t H = fpMix(fpSeed(), G.instances().front().R->tokenHash());
  H = fpMix(H, G.numNodes());
  H = fpMix(H, G.varNumbering().numSlots());
  for (const SuperEdge &E : G.edges()) {
    H = fpMix(H, static_cast<unsigned>(E.K));
    H = fpMix(H, E.From);
    H = fpMix(H, E.To);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Value codec
//===----------------------------------------------------------------------===//

constexpr int64_t MinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t MaxI64 = std::numeric_limits<int64_t>::max();

/// Row codec (format v2, matching the SoA payload rows): one flags byte
/// folds the lane tag, the bool kind and the interval sentinels, so a
/// typical finite interval row is the flags byte plus two svarints and
/// a bool row is a single byte (format v1 spent a separate tag byte per
/// value and a whole byte per bool kind).
///   bit0        1 = bool lane, 0 = interval lane
///   bool lane:  bits1-2 = BoolLattice kind (Bottom/False/True/Top)
///   int lane:   bit1 = bottom, bit2 = Lo is -oo, bit3 = Hi is +oo;
///               finite bounds follow as svarints (zigzag varints);
///               bit4 (v3) = a non-top congruence component follows as
///               two svarints (M, R). Interval-domain values always
///               carry a top congruence, so their rows are
///               byte-identical to format v2.
void writeValue(ByteWriter &W, const AbsValue &V) {
  if (!V.isInt()) {
    W.u8(static_cast<uint8_t>(
        1u | (static_cast<unsigned>(V.asBool().kind()) << 1)));
    return;
  }
  const NumVal &Num = V.asNum();
  const Interval &I = Num.I;
  uint8_t Flags = 0;
  if (Num.isBottom())
    Flags |= 2;
  else {
    if (I.Lo == MinI64)
      Flags |= 4; // -oo sentinel: no bound bytes follow
    if (I.Hi == MaxI64)
      Flags |= 8; // +oo sentinel
    if (!Num.C.isTop())
      Flags |= 16; // congruence component follows
  }
  W.u8(Flags);
  if (!(Flags & 2)) {
    if (!(Flags & 4))
      W.svarint(I.Lo);
    if (!(Flags & 8))
      W.svarint(I.Hi);
    if (Flags & 16) {
      W.svarint(Num.C.M);
      W.svarint(Num.C.R);
    }
  }
}

AbsValue readValue(ByteReader &R, bool &Ok) {
  uint8_t Flags = R.u8();
  if (Flags & 1) {
    if (Flags & ~0x7u) {
      Ok = false;
      return AbsValue();
    }
    switch ((Flags >> 1) & 3u) {
    case BoolLattice::Bottom:
      return AbsValue(BoolLattice::bottom());
    case BoolLattice::False:
      return AbsValue(BoolLattice(false));
    case BoolLattice::True:
      return AbsValue(BoolLattice(true));
    default:
      return AbsValue(BoolLattice::top());
    }
  }
  if (Flags & ~0x1eu) {
    Ok = false;
    return AbsValue();
  }
  if (Flags & 2)
    return AbsValue(Interval::bottom());
  int64_t Lo = (Flags & 4) ? MinI64 : R.svarint();
  int64_t Hi = (Flags & 8) ? MaxI64 : R.svarint();
  if (!(Flags & 16))
    return AbsValue(Interval(Lo, Hi));
  int64_t M = R.svarint();
  int64_t CR = R.svarint();
  // Only canonical, non-top, non-bottom classes are ever written.
  if (M < 0 || M == 1 || (M >= 2 && (CR < 0 || CR >= M))) {
    Ok = false;
    return AbsValue();
  }
  return AbsValue(NumVal(Interval(Lo, Hi), Congruence(M, CR)));
}

//===----------------------------------------------------------------------===//
// Store pool (save side)
//===----------------------------------------------------------------------===//

/// The first slot from \p Hash on, probing a power-of-two table
/// linearly, that is free (value-initialized) or that \p Match accepts.
template <typename T, typename MatchFn>
size_t probe(const std::vector<T> &Table, size_t Hash, MatchFn Match) {
  size_t Mask = Table.size() - 1;
  size_t At = Hash & Mask;
  while (!(Table[At] == T()) && !Match(Table[At]))
    At = (At + 1) & Mask;
  return At;
}

/// Doubles \p Table and re-inserts its occupied slots.
template <typename T, typename HashFn>
void grow(std::vector<T> &Table, HashFn Hash) {
  std::vector<T> Old(2 * Table.size());
  Old.swap(Table);
  for (const T &E : Old)
    if (!(E == T()))
      Table[probe(Table, Hash(E), [](const T &) { return false; })] = E;
}

/// Content-addressed pool of serialized stores. References 0 and 1 are
/// the implicit top and bottom stores; pool entries start at 2, in
/// first-seen order. A store is encoded once, straight onto the end of
/// the pool buffer, and those bytes are dropped again when an earlier
/// entry holds the same ones: a store serializes once however many
/// boundary snapshots hold it and whichever payloads they hold it in,
/// and the file depends on the values alone, not on how the solver
/// happened to share payloads. The identity table in front skips the
/// encode for a payload already seen (COW sharing makes that the common
/// case). Both tables are open-addressed, at most half full, and hold
/// references: an entry's bytes are found by its offsets in the buffer.
class StorePoolWriter {
public:
  uint64_t ref(const AbstractStore &S) {
    if (S.isBottom())
      return 1;
    if (S.isTop())
      return 0;
    const void *Identity = S.payloadIdentity();
    size_t At = probe(ByIdentity, mixPointer(Identity),
                      [&](const IdentitySlot &E) { return E.Key == Identity; });
    if (ByIdentity[At].Key)
      return ByIdentity[At].Ref;
    uint32_t Ref = intern(S);
    ByIdentity[At] = {Identity, Ref};
    if (++Identities * 2 > ByIdentity.size())
      grow(ByIdentity, [](const IdentitySlot &E) { return mixPointer(E.Key); });
    return Ref;
  }

  /// Encoded bytes of the pool's entries.
  size_t size() const { return Pool.size(); }

  /// The pool as the body holds it: the entry count, then the entries.
  void writePool(ByteWriter &W) const {
    W.varint(Entries.size());
    W.append(Pool);
  }

private:
  struct IdentitySlot {
    const void *Key = nullptr; ///< a payload; null marks a free slot
    uint32_t Ref = 0;
    bool operator==(const IdentitySlot &) const = default;
  };
  struct EntryInfo {
    size_t End;  ///< one past the entry's last byte in Pool
    size_t Hash; ///< of the entry's bytes
  };

  static size_t mixPointer(const void *P) {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(P) * 0x9e3779b97f4a7c15ull) >> 32);
  }

  std::string_view bytesOf(uint32_t Ref) const {
    size_t Begin = Ref > 2 ? Entries[Ref - 3].End : 0;
    return std::string_view(Pool.buffer())
        .substr(Begin, Entries[Ref - 2].End - Begin);
  }

  /// Encodes \p S onto the end of the pool and returns its reference:
  /// a new entry's, or that of an earlier entry with the same bytes (the
  /// new ones are dropped then).
  uint32_t intern(const AbstractStore &S) {
    size_t Begin = Pool.size();
    Pool.varint(S.numEntries());
    S.forEachEntry([&](const VarDecl *V, const AbsValue &Val) {
      Pool.varint(V->storeSlot());
      writeValue(Pool, Val);
    });
    std::string_view Bytes = std::string_view(Pool.buffer()).substr(Begin);
    size_t Hash = std::hash<std::string_view>()(Bytes);
    size_t At = probe(ByContent, Hash, [&](uint32_t Ref) {
      return Entries[Ref - 2].Hash == Hash && bytesOf(Ref) == Bytes;
    });
    if (uint32_t Ref = ByContent[At]) {
      Pool.truncate(Begin);
      return Ref;
    }
    Entries.push_back({Pool.size(), Hash});
    uint32_t Ref = static_cast<uint32_t>(Entries.size() + 1);
    ByContent[At] = Ref;
    if (Entries.size() * 2 > ByContent.size())
      grow(ByContent, [&](uint32_t R) { return Entries[R - 2].Hash; });
    return Ref;
  }

  ByteWriter Pool;                  ///< the entries, back to back
  std::vector<EntryInfo> Entries;   ///< index = reference - 2
  std::vector<IdentitySlot> ByIdentity = std::vector<IdentitySlot>(64);
  size_t Identities = 0;            ///< occupied ByIdentity slots
  std::vector<uint32_t> ByContent = std::vector<uint32_t>(64); ///< 0: free
};

//===----------------------------------------------------------------------===//
// Store pool (load side)
//===----------------------------------------------------------------------===//

/// The deserialized pool: one reconstructed store per entry, each row
/// bound to the current program's declaration of its slot.
struct StorePoolReader {
  std::vector<AbstractStore> Stores; ///< index = ref

  bool parse(ByteReader &R, const SuperGraph &G, DomainKind DK) {
    const detail::StoreKeyTable &Decls = *G.keyTable();
    uint64_t Count = R.varint();
    if (R.failed() || Count > R.remaining())
      return false;
    Stores.reserve(2 + Count);
    Stores.push_back(AbstractStore::top());
    Stores.push_back(AbstractStore::bottom());
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t NumEntries = R.varint();
      if (R.failed() || NumEntries > R.remaining())
        return false;
      AbstractStore S;
      if (NumEntries)
        S.adoptKeyTable(G.keyTable());
      bool Ok = true;
      for (uint64_t E = 0; E < NumEntries; ++E) {
        uint64_t Slot = R.varint();
        AbsValue Val = readValue(R, Ok);
        // A row's lane must be its variable's: the store kernels never
        // check it again.
        if (R.failed() || !Ok || Slot >= Decls.size() ||
            Val.isBool() != Decls[Slot]->type()->isBoolean())
          return false;
        S.set(Decls[Slot], Val, DK);
      }
      Stores.push_back(std::move(S));
    }
    return true;
  }

  /// Reads \p N references into \p Out; false on a dangling one (a
  /// short read yields references to top and leaves R failed).
  bool readRefs(ByteReader &R, unsigned N,
                std::vector<AbstractStore> &Out) const {
    Out.resize(N);
    for (unsigned V = 0; V < N; ++V) {
      uint64_t Ref = R.varint();
      if (Ref >= Stores.size())
        return false;
      Out[V] = Stores[Ref];
    }
    return true;
  }
};

bool isForwardSig(Analyzer::PhaseSig Sig) {
  return Sig == Analyzer::PhaseSig::FwdNoEnv ||
         Sig == Analyzer::PhaseSig::FwdEnv;
}

/// Writes \p Data to a fresh temp file next to \p Path and swaps it
/// into place. The temp name is unique to this save (pid plus a
/// per-process counter, created O_EXCL), so concurrent saves of one
/// file never write through each other's temp inode. An existing file
/// is replaced by exchanging the two names (Linux renameat2 with
/// RENAME_EXCHANGE) and unlinking the temp name, which then holds the
/// old bytes: a rename over a live name costs far more on ext4, whose
/// replace-via-rename heuristic (auto_da_alloc) allocates the new
/// file's blocks and queues its data inside the call (DESIGN.md §8).
/// The exchange fails on the entry's first save (ENOENT) and on a
/// filesystem without it (EINVAL); a plain rename then creates or
/// replaces the file. Either way a reader sees the old file or the new
/// one, never a torn or missing file. Returns an error message, empty
/// on success.
std::string replaceFile(const std::string &Path, const std::string &Data) {
  static std::atomic<uint64_t> Serial{0};
  char Suffix[64];
  std::snprintf(Suffix, sizeof(Suffix), ".%ld.%llu.tmp",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(Serial.fetch_add(1)));
  std::string Tmp = Path + Suffix;
  auto Failure = [&Tmp](const char *What, int Errno) {
    return What + Tmp + ": " + std::strerror(Errno);
  };
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0666);
  if (Fd < 0)
    return Failure("cannot open cache file for writing: ", errno);
  std::string Error;
  for (size_t Off = 0; Off < Data.size();) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = Failure("write failed: ", errno);
      break;
    }
    Off += static_cast<size_t>(N);
  }
  if (::close(Fd) != 0 && Error.empty())
    Error = Failure("write failed: ", errno);
  if (Error.empty()) {
#ifdef RENAME_EXCHANGE
    if (::renameat2(AT_FDCWD, Tmp.c_str(), AT_FDCWD, Path.c_str(),
                    RENAME_EXCHANGE) == 0) {
      ::unlink(Tmp.c_str()); // the old bytes
      return Error;
    }
#endif
    if (::rename(Tmp.c_str(), Path.c_str()) != 0)
      Error = Failure("cannot move cache file into place: ", errno);
  }
  if (!Error.empty())
    ::unlink(Tmp.c_str());
  return Error;
}

/// Reads exactly \p Len bytes from \p Fd into \p Buf.
bool readFully(int Fd, char *Buf, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Closes a file descriptor when it goes out of scope.
struct FdCloser {
  int Fd;
  ~FdCloser() { ::close(Fd); }
};

} // namespace

std::string persist::cacheFilePath(const std::string &Dir,
                                   const AnalysisOptions &Opts) {
  std::filesystem::path P(Dir);
  char Name[64];
  std::snprintf(Name, sizeof(Name), "syntox-%016llx.warm",
                static_cast<unsigned long long>(Opts.optionsHash()));
  return (P / Name).string();
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool persist::saveWarmCache(const std::string &Dir, const Analyzer &An,
                            std::string *ErrorOut) {
  auto Fail = [&](const std::string &Why) {
    if (ErrorOut)
      *ErrorOut = Why;
    return false;
  };
  const AnalysisOptions &Opts = An.options();
  if (!Opts.WarmStart)
    return Fail("warm start disabled: nothing to persist");
  const std::vector<Analyzer::WarmSlot> &Slots = An.chainSlots();
  bool AnyValid = false;
  for (const Analyzer::WarmSlot &S : Slots)
    AnyValid |= S.Memo.Valid;
  if (!AnyValid)
    return Fail("no recorded run to persist");

  const SuperGraph &G = An.graph();
  unsigned N = G.numNodes();
  size_t FwdElems = An.forwardOrder().elements().size();
  size_t BwdElems = An.backwardOrder().elements().size();
  StorePoolWriter Pool;

  // The slots are serialized first, into a side buffer, so the pool they
  // fill can be emitted ahead of them in the body.
  ByteWriter SlotsW;
  SlotsW.varint(Slots.size());
  for (const Analyzer::WarmSlot &Slot : Slots) {
    const WarmStartMemo<AbstractStore> &M = Slot.Memo;
    size_t NumElems = isForwardSig(Slot.Sig) ? FwdElems : BwdElems;
    bool Ok = M.Valid && M.NumNodes == N && !M.Boundaries.empty() &&
              M.ElemChanged.size() == M.Boundaries.size() &&
              M.ElemSteps.size() == M.Boundaries.size() &&
              M.ElemChanged.front().size() == NumElems;
    for (const std::vector<AbstractStore> &B : M.Boundaries)
      Ok &= B.size() == N;
    SlotsW.u8(Ok);
    if (!Ok)
      continue;
    SlotsW.u8(static_cast<uint8_t>(Slot.Sig));
    SlotsW.u8(Slot.HadEnv);
    SlotsW.u8(static_cast<uint8_t>(M.Kind));
    SlotsW.varint(M.Boundaries.size());
    for (size_t B = 0; B < M.Boundaries.size(); ++B) {
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(M.Boundaries[B][V]));
      for (size_t E = 0; E < NumElems; ++E)
        SlotsW.u8(M.ElemChanged[B][E]);
      for (size_t E = 0; E < NumElems; ++E)
        SlotsW.varint(M.ElemSteps[B][E]);
    }
    bool HasEnv = Slot.Env.size() == N;
    SlotsW.u8(HasEnv);
    if (HasEnv)
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(Slot.Env[V]));
    bool HasSeeds = Slot.Seeds.size() == N;
    SlotsW.u8(HasSeeds);
    if (HasSeeds)
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(Slot.Seeds[V]));
  }

  // The file in one buffer: a header placeholder, then the body (the
  // program's shape, the pool, the slots, in that order, so the reader
  // can check the shape before it allocates anything), then the header
  // over its placeholder, once the body's length and checksum are known.
  static constexpr char NoHeader[HeaderBytes] = {};
  ByteWriter File;
  File.reserve(HeaderBytes + 5 * 10 + Pool.size() + SlotsW.size());
  File.bytes(NoHeader, HeaderBytes);
  File.varint(N);
  File.varint(FwdElems);
  File.varint(BwdElems);
  File.varint(G.varNumbering().numSlots());
  Pool.writePool(File);
  File.append(SlotsW);
  uint64_t BodyLen = File.size() - HeaderBytes;
  ByteWriter Header;
  Header.bytes(CacheMagic, 4);
  Header.u32(CacheFormatVersion);
  Header.u64(Opts.optionsHash());
  Header.u64(programHash(G));
  Header.u64(BodyLen);
  Header.u64(fnv1a(File.buffer().data() + HeaderBytes, BodyLen));
  File.patch(0, Header);

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return Fail("cannot create cache directory: " + EC.message());
  // Write, then swap, so a crash mid-save leaves the old file intact.
  if (std::string Error = replaceFile(cacheFilePath(Dir, Opts),
                                      File.buffer());
      !Error.empty())
    return Fail(Error);
  return true;
}

bool persist::touchWarmCache(const std::string &Dir,
                             const AnalysisOptions &Opts) {
  std::string Path = cacheFilePath(Dir, Opts);
  struct stat Before, After;
  if (::stat(Path.c_str(), &Before) != 0 || !S_ISREG(Before.st_mode))
    return false;
  // UTIME_NOW stamps the file clock a write would. That clock ticks
  // coarsely, so within one tick step 1 ns past the old mtime instead:
  // the index must see the entry change.
  if (::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0) != 0 ||
      ::stat(Path.c_str(), &After) != 0)
    return false;
  auto Ns = [](const struct timespec &T) {
    return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
  };
  if (Ns(After.st_mtim) > Ns(Before.st_mtim))
    return true;
  int64_t Next = Ns(Before.st_mtim) + 1;
  struct timespec Times[2];
  Times[0].tv_sec = 0;
  Times[0].tv_nsec = UTIME_OMIT;
  Times[1].tv_sec = static_cast<time_t>(Next / 1000000000);
  Times[1].tv_nsec = static_cast<long>(Next % 1000000000);
  return ::utimensat(AT_FDCWD, Path.c_str(), Times, 0) == 0;
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

CacheLoadResult persist::loadWarmCache(const std::string &Dir,
                                       Analyzer &An) {
  CacheLoadResult Res;
  auto Fallback = [&](const std::string &Why) {
    Res = CacheLoadResult();
    Res.FallbackReason = Why;
    return Res;
  };
  const AnalysisOptions &Opts = An.options();
  if (!Opts.WarmStart)
    return Fallback("warm start disabled");

  std::string Path = cacheFilePath(Dir, Opts);
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Fallback("no cache file");
  FdCloser Closer{Fd};

  // The header decides alone whether the body is worth reading: a file
  // written under other options or for another program is rejected
  // after one small read.
  char Header[HeaderBytes];
  if (!readFully(Fd, Header, HeaderBytes))
    return Fallback("truncated header");
  if (std::memcmp(Header, CacheMagic, 4) != 0)
    return Fallback("bad magic");
  ByteReader H(Header + 4, HeaderBytes - 4);
  if (H.u32() != CacheFormatVersion)
    return Fallback("format version mismatch");
  if (H.u64() != Opts.optionsHash())
    return Fallback("options mismatch");
  const SuperGraph &G = An.graph();
  if (H.u64() != programHash(G))
    return Fallback("program changed");
  uint64_t BodyLen = H.u64();
  uint64_t Checksum = H.u64();
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0 ||
      static_cast<uint64_t>(St.st_size) - HeaderBytes != BodyLen)
    return Fallback("truncated body");
  std::string Data(BodyLen, '\0');
  if (!readFully(Fd, Data.data(), BodyLen))
    return Fallback("truncated body");
  if (fnv1a(Data.data(), BodyLen) != Checksum)
    return Fallback("checksum mismatch");

  // The body must describe this program's index spaces exactly; the
  // counts are checked before any row is allocated from them.
  unsigned N = G.numNodes();
  size_t FwdElems = An.forwardOrder().elements().size();
  size_t BwdElems = An.backwardOrder().elements().size();
  ByteReader R(Data.data(), BodyLen);
  uint64_t RecNodes = R.varint();
  uint64_t RecFwdElems = R.varint();
  uint64_t RecBwdElems = R.varint();
  uint64_t RecSlots = R.varint();
  if (R.failed() || RecNodes != N || RecFwdElems != FwdElems ||
      RecBwdElems != BwdElems || RecSlots != G.varNumbering().numSlots())
    return Fallback("program shape mismatch");

  StorePoolReader Pool;
  if (!Pool.parse(R, G, Opts.Domain) || R.failed())
    return Fallback("malformed store pool");

  uint64_t NumSlots = R.varint();
  if (R.failed() || NumSlots > 1024)
    return Fallback("malformed slot count");
  std::vector<Analyzer::WarmSlot> NewSlots;
  for (uint64_t SlotIdx = 0; SlotIdx < NumSlots; ++SlotIdx) {
    uint8_t Valid = R.u8();
    NewSlots.emplace_back();
    Analyzer::WarmSlot &Slot = NewSlots.back();
    if (!Valid)
      continue;
    uint8_t SigByte = R.u8();
    if (SigByte > static_cast<uint8_t>(Analyzer::PhaseSig::Eventually))
      return Fallback("malformed slot signature");
    Slot.Sig = static_cast<Analyzer::PhaseSig>(SigByte);
    Slot.HadEnv = R.u8() != 0;
    bool Fwd = isForwardSig(Slot.Sig);
    // The signature fixes the slot's fixpoint kind under these options,
    // and the kind bounds the sweeps the recorded solve could take.
    WarmStartMemo<AbstractStore> &M = Slot.Memo;
    bool Gfp = Slot.Sig == Analyzer::PhaseSig::Always ||
               (Fwd && Opts.HarrisonGfp);
    M.Kind = Gfp ? FixpointKind::Gfp : FixpointKind::Lfp;
    if (R.u8() != static_cast<uint8_t>(M.Kind))
      return Fallback("slot kind mismatch");
    uint64_t MaxBoundaries =
        Gfp ? MaxGfpSweeps : 1 + uint64_t(Opts.NarrowingPasses);
    M.NumNodes = N;

    // The rows are allocated per boundary, so the count is checked
    // first: against the sweeps the recorded solve could take, and
    // against the body, since each row takes at least one byte per
    // node and two per element.
    size_t NumElems = Fwd ? FwdElems : BwdElems;
    uint64_t NumBoundaries = R.varint();
    uint64_t RowBytes = N + 2 * uint64_t(NumElems);
    if (R.failed() || NumBoundaries == 0 || NumBoundaries > MaxBoundaries ||
        NumBoundaries * RowBytes > R.remaining())
      return Fallback("malformed boundary count");
    M.Boundaries.resize(NumBoundaries);
    M.ElemChanged.assign(NumBoundaries, std::vector<uint8_t>(NumElems));
    M.ElemSteps.assign(NumBoundaries, std::vector<uint64_t>(NumElems));
    for (uint64_t B = 0; B < NumBoundaries; ++B) {
      if (!Pool.readRefs(R, N, M.Boundaries[B]))
        return Fallback("dangling store reference");
      for (size_t E = 0; E < NumElems; ++E)
        M.ElemChanged[B][E] = R.u8();
      for (size_t E = 0; E < NumElems; ++E)
        M.ElemSteps[B][E] = R.varint();
    }
    // The envelope and seeds the recorded run solved under, for the
    // solver's external-input check.
    if (R.u8() && !Pool.readRefs(R, N, Slot.Env))
      return Fallback("dangling store reference");
    if (R.u8() && !Pool.readRefs(R, N, Slot.Seeds))
      return Fallback("dangling store reference");
    if (R.failed())
      return Fallback("malformed slot body");
    M.Valid = true;
    ++Res.Slots;
  }
  if (!R.atEnd())
    return Fallback("trailing bytes");

  if (Res.Slots == 0)
    return Fallback("no usable slots in cache");
  An.importChainSlots(std::move(NewSlots));
  Res.Loaded = true;
  Res.RestoredNodes = N;
  return Res;
}
