
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's PCG64 (O'Neill, HMC-CS-2014-0905): XSL-RR output on a 128-bit
   LCG, stored as the words (state hi, state lo, inc hi, inc lo) */
typedef struct { __uint128_t state, inc; } pcg64_t;
#define U128(hi, lo) (((__uint128_t)(hi) << 64) | (lo))
#define LOAD_PCG64(w) ((pcg64_t){U128((w)[0], (w)[1]), U128((w)[2], (w)[3])})

static inline uint64_t next_uint64(pcg64_t *g)
{
    g->state = g->state * U128(0x2360ed051fc65da4ULL, 0x4385df649fccf645ULL)
               + g->inc;
    uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = g->state >> 122;
    return (v >> rot) | (v << ((-rot) & 63));
}

static inline double next_double(pcg64_t *g)
{
    return (next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

static inline void store_pcg64(const pcg64_t *g, uint64_t *w)
{
    w[0] = g->state >> 64; w[1] = g->state; w[2] = g->inc >> 64; w[3] = g->inc;
}

/* numpy's SeedSequence hashes */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

/* out[4j..4j+3] = the state of PCG64(SeedSequence(entropy,
   spawn_key=(first_index + j,))), entropy being the seed's little-endian
   uint32 words: SeedSequence's mix_entropy on a pool of 4 words and
   generate_state(4, uint64), then numpy's pcg64_set_seed */
void opo3_seed(const uint32_t *entropy, int64_t n_entropy,
               int64_t first_index, int64_t nb, uint64_t *out)
{
    const int64_t n_run = n_entropy < 4 ? 4 : n_entropy;
    for (int64_t j = 0; j < nb; j++) {
        /* the run entropy padded to the pool size, then the key's words */
        const uint64_t index = (uint64_t)first_index + (uint64_t)j;
        uint32_t pool[4], hash_const = 0x43b0d7e5u;
        for (int64_t i = 0; i < n_run + (index >> 32 ? 2 : 1); i++) {
            uint32_t v = i < n_entropy ? entropy[i] : i < n_run ? 0
                         : (uint32_t)(index >> (32 * (i - n_run)));
            if (i < 4)
                pool[i] = hashmix(v, &hash_const);
            else
                for (int dst = 0; dst < 4; dst++)
                    pool[dst] = mix(pool[dst], hashmix(v, &hash_const));
            for (int src = 0; i == 3 && src < 4; src++)
                for (int dst = 0; dst < 4; dst++)
                    if (src != dst)
                        pool[dst] = mix(pool[dst],
                                        hashmix(pool[src], &hash_const));
        }
        uint64_t seed[4] = {0, 0, 0, 0};
        hash_const = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t v = pool[i % 4] ^ hash_const;
            hash_const *= 0x58f38dedu;
            v *= hash_const;
            seed[i / 2] |= (uint64_t)(v ^ (v >> 16)) << (32 * (i % 2));
        }
        pcg64_t g = {0, U128(seed[2], seed[3]) << 1 | 1};
        next_uint64(&g);
        g.state += U128(seed[0], seed[1]);
        next_uint64(&g);
        store_pcg64(&g, out + 4 * j);
    }
}

/* numpy's ziggurat tables, as its ziggurat_constants.h states them; a
   test finds these bytes in numpy's random/lib/libnpyrandom.a */
static const uint64_t ki_double[256] = {
    0xef33d8025ef6aULL, 0x0ULL, 0xc08be98fbc6a8ULL, 0xda354fabd8142ULL,
    0xe51f67ec1eeeaULL, 0xeb255e9d3f77eULL, 0xeef4b817ecab9ULL, 0xf19470afa44aaULL,
    0xf37ed61ffcb18ULL, 0xf4f469561255cULL, 0xf61a5e41ba396ULL, 0xf707a755396a4ULL,
    0xf7cb2ec28449aULL, 0xf86f10c6357d3ULL, 0xf8fa6578325deULL, 0xf9724c74dd0daULL,
    0xf9da907dbf509ULL, 0xfa360f581fa74ULL, 0xfa86fde5b4bf8ULL, 0xfacf160d354dcULL,
    0xfb0fb6718b90fULL, 0xfb49f8d5374c6ULL, 0xfb7ec2366fe77ULL, 0xfbaece9a1e50eULL,
    0xfbdab9d040bedULL, 0xfc03060ff6c57ULL, 0xfc2821037a248ULL, 0xfc4a67ae25bd1ULL,
    0xfc6a2977aee31ULL, 0xfc87aa92896a4ULL, 0xfca325e4bde85ULL, 0xfcbcce902231aULL,
    0xfcd4d12f839c4ULL, 0xfceb54d8fec99ULL, 0xfd007bf1dc930ULL, 0xfd1464dd6c4e6ULL,
    0xfd272a8e2f450ULL, 0xfd38e4ff0c91eULL, 0xfd49a9990b478ULL, 0xfd598b8920f53ULL,
    0xfd689c08e99ecULL, 0xfd76ea9c8e832ULL, 0xfd848547b08e8ULL, 0xfd9178bad2c8cULL,
    0xfd9dd07a7add2ULL, 0xfda9970105e8cULL, 0xfdb4d5dc02e20ULL, 0xfdbf95c5bfcd0ULL,
    0xfdc9debb99a7dULL, 0xfdd3b8118729dULL, 0xfddd288342f90ULL, 0xfde6364369f64ULL,
    0xfdeee708d514eULL, 0xfdf7401a6b42eULL, 0xfdff46599ed40ULL, 0xfe06fe4bc24f2ULL,
    0xfe0e6c225a258ULL, 0xfe1593c28b84cULL, 0xfe1c78cbc3f99ULL, 0xfe231e9db1caaULL,
    0xfe29885da1b91ULL, 0xfe2fb8fb54186ULL, 0xfe35b33558d4aULL, 0xfe3b799d0002aULL,
    0xfe410e99ead7fULL, 0xfe46746d47734ULL, 0xfe4bad34c095cULL, 0xfe50baed29524ULL,
    0xfe559f74ebc78ULL, 0xfe5a5c8e41212ULL, 0xfe5ef3e138689ULL, 0xfe6366fd91078ULL,
    0xfe67b75c6d578ULL, 0xfe6be661e11aaULL, 0xfe6ff55e5f4f2ULL, 0xfe73e5900a702ULL,
    0xfe77b823e9e39ULL, 0xfe7b6e37070a2ULL, 0xfe7f08d774243ULL, 0xfe8289053f08cULL,
    0xfe85efb35173aULL, 0xfe893dc840864ULL, 0xfe8c741f0cebcULL, 0xfe8f9387d4ef6ULL,
    0xfe929cc879b1dULL, 0xfe95909d388eaULL, 0xfe986fb939aa2ULL, 0xfe9b3ac714866ULL,
    0xfe9df2694b6d5ULL, 0xfea0973abe67cULL, 0xfea329cf166a4ULL, 0xfea5aab32952cULL,
    0xfea81a6d5741aULL, 0xfeaa797de1cf0ULL, 0xfeacc85f3d920ULL, 0xfeaf07865e63cULL,
    0xfeb13762fec13ULL, 0xfeb3585fe2a4aULL, 0xfeb56ae3162b4ULL, 0xfeb76f4e284faULL,
    0xfeb965fe62014ULL, 0xfebb4f4cf9d7cULL, 0xfebd2b8f449d0ULL, 0xfebefb16e2e3eULL,
    0xfec0be31ebde8ULL, 0xfec2752b15a15ULL, 0xfec42049dafd3ULL, 0xfec5bfd29f196ULL,
    0xfec75406ceef4ULL, 0xfec8dd2500cb4ULL, 0xfeca5b6911f12ULL, 0xfecbcf0c427feULL,
    0xfecd38454fb15ULL, 0xfece97488c8b3ULL, 0xfecfec47f91b7ULL, 0xfed1377358528ULL,
    0xfed278f844903ULL, 0xfed3b10242f4cULL, 0xfed4dfbad586eULL, 0xfed605498c3ddULL,
    0xfed721d414fe8ULL, 0xfed8357e4a982ULL, 0xfed9406a42cc8ULL, 0xfeda42b85b704ULL,
    0xfedb3c8746ab4ULL, 0xfedc2df416652ULL, 0xfedd171a46e52ULL, 0xfeddf813c8ad3ULL,
    0xfeded0f909980ULL, 0xfedfa1e0fd414ULL, 0xfee06ae124bc4ULL, 0xfee12c0d95a06ULL,
    0xfee1e579006e0ULL, 0xfee29734b6524ULL, 0xfee34150ae4bcULL, 0xfee3e3db89b3cULL,
    0xfee47ee2982f4ULL, 0xfee51271db086ULL, 0xfee59e9407f41ULL, 0xfee623528b42eULL,
    0xfee6a0b5897f1ULL, 0xfee716c3e077aULL, 0xfee7858327b82ULL, 0xfee7ecf7b06baULL,
    0xfee84d2484ab2ULL, 0xfee8a60b66343ULL, 0xfee8f7accc851ULL, 0xfee94207e25daULL,
    0xfee9851a829eaULL, 0xfee9c0e13485cULL, 0xfee9f557273f4ULL, 0xfeea22762ccaeULL,
    0xfeea4836b42acULL, 0xfeea668fc2d71ULL, 0xfeea7d76ed6faULL, 0xfeea8ce04fa0aULL,
    0xfeea94be8333bULL, 0xfeea950296410ULL, 0xfeea8d9c0075eULL, 0xfeea7e7897654ULL,
    0xfeea678481d24ULL, 0xfeea48aa29e83ULL, 0xfeea21d22e4daULL, 0xfee9f2e352024ULL,
    0xfee9bbc26af2eULL, 0xfee97c524f2e4ULL, 0xfee93473c0a3aULL, 0xfee8e40557516ULL,
    0xfee88ae369c7aULL, 0xfee828e7f3dfdULL, 0xfee7bdea7b888ULL, 0xfee749bff37ffULL,
    0xfee6cc3a9bd5eULL, 0xfee64529e007eULL, 0xfee5b45a32888ULL, 0xfee51994e57b6ULL,
    0xfee474a0006cfULL, 0xfee3c53e12c50ULL, 0xfee30b2e02ad8ULL, 0xfee2462ad8205ULL,
    0xfee175eb83c5aULL, 0xfee09a22a1447ULL, 0xfedfb27e349ccULL, 0xfedebea76216cULL,
    0xfeddbe422047eULL, 0xfedcb0ece39d3ULL, 0xfedb964042cf4ULL, 0xfeda6dce938c9ULL,
    0xfed937237e98dULL, 0xfed7f1c38a836ULL, 0xfed69d2b9c02bULL, 0xfed538d06ae00ULL,
    0xfed3c41dea422ULL, 0xfed23e76a2fd8ULL, 0xfed0a732fe644ULL, 0xfecefda07fe34ULL,
    0xfecd4100eb7b8ULL, 0xfecb708956eb4ULL, 0xfec98b61230c1ULL, 0xfec790a0da978ULL,
    0xfec57f50f31feULL, 0xfec356686c962ULL, 0xfec114cb4b335ULL, 0xfebeb948e6fd0ULL,
    0xfebc429a0b692ULL, 0xfeb9af5ee0cdcULL, 0xfeb6fe1c98542ULL, 0xfeb42d3ad1f9eULL,
    0xfeb13b00b2d4bULL, 0xfeae2591a02e9ULL, 0xfeaaeae992257ULL, 0xfea788d8ee326ULL,
    0xfea3fcffd73e5ULL, 0xfea044c8dd9f6ULL, 0xfe9c5d62f563bULL, 0xfe9843ba947a4ULL,
    0xfe93f471d4728ULL, 0xfe8f6bd76c5d6ULL, 0xfe8aa5dc4e8e6ULL, 0xfe859e07ab1eaULL,
    0xfe804f690a940ULL, 0xfe7ab488233c0ULL, 0xfe74c751f6aa5ULL, 0xfe6e8102aa202ULL,
    0xfe67da0b6abd8ULL, 0xfe60c9f38307eULL, 0xfe5947338f742ULL, 0xfe51470977280ULL,
    0xfe48bd436f458ULL, 0xfe3f9bffd1e37ULL, 0xfe35d35eeb19cULL, 0xfe2b5122fe4feULL,
    0xfe20003995557ULL, 0xfe13c82788314ULL, 0xfe068c4ee67b0ULL, 0xfdf82b02b71aaULL,
    0xfde87c57efeaaULL, 0xfdd7509c63bfdULL, 0xfdc46e529bf13ULL, 0xfdaf8f82e0282ULL,
    0xfd985e1b2ba75ULL, 0xfd7e6ef48cf04ULL, 0xfd613adbd650bULL, 0xfd40149e2f012ULL,
    0xfd1a1a7b4c7acULL, 0xfcee204761f9eULL, 0xfcba8d85e11b2ULL, 0xfc7d26ecd2d22ULL,
    0xfc32b2f1e22edULL, 0xfbd6581c0b83aULL, 0xfb606c4005434ULL, 0xfac40582a2874ULL,
    0xf9e971e014598ULL, 0xf89fa48a41dfcULL, 0xf66c5f7f0302cULL, 0xf1a5a4b331c4aULL
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

static double standard_normal(pcg64_t *g);

/* the rest of numpy's random_standard_normal for a draw outside the
   rectangles: the idx-0 tail, else the wedge test, else a fresh draw */
static __attribute__((noinline)) double normal_rejected(
    pcg64_t *g, int idx, uint64_t rabs, double x)
{
    if (idx == 0) {
        for (;;) {
            /* Switch to 1.0 - U to avoid log(0.0), see GH 13361 */
            double xx = -ziggurat_nor_inv_r * log1p(-next_double(g));
            double yy = -log1p(-next_double(g));
            if (yy + yy > xx * xx)
                return ((rabs >> 8) & 0x1) ? -(ziggurat_nor_r + xx)
                                           : ziggurat_nor_r + xx;
        }
    }
    if (((fi_double[idx - 1] - fi_double[idx]) * next_double(g)
         + fi_double[idx]) < exp(-0.5 * x * x))
        return x;
    return standard_normal(g);
}

/* numpy's random_standard_normal (Marsaglia & Tsang's ziggurat, J. Stat.
   Softw. 5(8), 2000) as numpy writes it, except that the random sign is
   XOR-ed into bit 63, not taken by an unpredictable branch, and that the
   rejections run out of line on a copy of g, so g stays in registers */
static inline __attribute__((always_inline)) double standard_normal(
    pcg64_t *g)
{
    uint64_t r = next_uint64(g);
    int idx = r & 0xff;
    r >>= 8;
    uint64_t sign = r & 0x1;
    uint64_t rabs = (r >> 1) & 0x000fffffffffffff;
    double x = rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= sign << 63;
    memcpy(&x, &bits, sizeof x);
    if (rabs < ki_double[idx])
        return x; /* 99.3% of the time return here */
    pcg64_t copy = *g;
    x = normal_rejected(&copy, idx, rabs, x);
    *g = copy;
    return x;
}

/* n draws of standard_normal from the PCG64 in words[0..3], written back
   after, for the load-time comparison with Generator.standard_normal */
void opo3_normals(uint64_t *words, int64_t n, double *out)
{
    pcg64_t g = LOAD_PCG64(words);
    for (int64_t i = 0; i < n; i++)
        out[i] = standard_normal(&g);
    store_pcg64(&g, words);
}

/* The step map runs on LANES trajectories of a range at once, the real
   and imaginary parts of each amplitude in one vector across them.  Each
   lane rounds as a scalar step would: + - * / and sqrt are IEEE per
   element, and nothing fuses a multiply-add (-ffp-contract=off, and
   neither clone below enables FMA).  32-byte vectors are passed by
   pointer: by value, without AVX, they change the ABI (-Wpsabi). */
#define LANES 4
typedef double vdouble __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t vmask __attribute__((vector_size(LANES * sizeof(int64_t))));
typedef struct { vdouble re, im; } lanes_t;  /* one amplitude of each lane */
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define SIGN_BIT ((vmask){} + INT64_MIN)
#define VABS(a) ((vdouble)((vmask)(a) & ~SIGN_BIT))
#define VCOPYSIGN(a, s) \
    ((vdouble)(((vmask)(a) & ~SIGN_BIT) | ((vmask)(s) & SIGN_BIT)))
#define VSELECT(m, a, b) ((vdouble)(((m) & (vmask)(a)) | (~(m) & (vmask)(b))))
/* an AVX clone besides the baseline one, picked at load by an ifunc */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__GLIBC__)
#define LANE_CLONES __attribute__((target_clones("avx", "default")))
#else
#define LANE_CLONES
#endif

static ALWAYS_INLINE void vsqrt(vdouble *a)
{
    for (int k = 0; k < LANES; k++)
        (*a)[k] = sqrt((*a)[k]);
}

/* the principal root of x + iy: with m = sqrt(x*x + y*y),
   t = sqrt(0.5*(m + |x|)) and u = 0.5*(y/t), (t, copysign(u, y)) for
   x >= 0 and (|u|, copysign(t, y)) for x < 0 */
static ALWAYS_INLINE void root_formula(const vdouble *x, const vdouble *y,
                                       const vdouble *m2, lanes_t *root)
{
    vdouble m = *m2;
    vsqrt(&m);
    vdouble t = 0.5 * (m + VABS(*x));
    vsqrt(&t);
    vdouble u = 0.5 * (*y / t);
    vmask neg = *x < 0.0;
    root->re = VSELECT(neg, VABS(u), t);
    root->im = VCOPYSIGN(VSELECT(neg, t, u), *y);
}

/* the root of x + iy when x*x + y*y is outside [2^-1000, 2^1000] or NaN:
   the formula on x + iy times an exact even power of two that brings it
   into range, its root times the square root of the inverse; 0 gives
   (+0, y) */
static __attribute__((noinline)) void root_rescaled(double x, double y,
                                                    double *re, double *im)
{
    if (x == 0 && y == 0) {
        *re = 0;
        *im = y;
        return;
    }
    const int big = fabs(x) > 1 || fabs(y) > 1;
    const double scale = big ? 0x1p-600 : 0x1p600;
    vdouble sx = {x * scale}, sy = {y * scale};      /* in lane 0 */
    vdouble m2 = sx * sx + sy * sy;
    lanes_t root;
    root_formula(&sx, &sy, &m2, &root);
    *re = root.re[0] * (big ? 0x1p300 : 0x1p-300);
    *im = root.im[0] * (big ? 0x1p300 : 0x1p-300);
}

/* root_formula where x*x + y*y lies in [2^-1000, 2^1000], so that no
   square overflows and a part's square that underflows is below the
   sum's rounding, root_rescaled elsewhere */
static ALWAYS_INLINE void lane_root(const lanes_t *z, lanes_t *root)
{
    const vdouble m2 = z->re * z->re + z->im * z->im;
    root_formula(&z->re, &z->im, &m2, root);
    const vmask out = ~((m2 >= 0x1p-1000) & (m2 <= 0x1p1000));
    if (!(out[0] | out[1] | out[2] | out[3]))
        return;
    for (int k = 0; k < LANES; k++) {
        if (out[k]) {
            double re, im;
            root_rescaled(z->re[k], z->im[k], &re, &im);
            root->re[k] = re;
            root->im[k] = im;
        }
    }
}

/* the textbook product (ac - bd, ad + bc) */
static ALWAYS_INLINE void cmul(const lanes_t *a, const lanes_t *b, lanes_t *p)
{
    p->re = a->re * b->re - a->im * b->im;
    p->im = a->re * b->im + a->im * b->re;
}

/* One thread's share of a pass: work(args, scratch, lo, hi) on the
   pass's units [lo, hi), with scratch of its own, and what it returned. */
typedef int (*work_t)(const void *, void *, int64_t, int64_t);
typedef struct {
    work_t work; const void *args; void *scratch; int64_t lo, hi;
    int result, started; pthread_t thread;
} share_t;

static void *run_share(void *arg)
{
    share_t *s = arg;
    s->result = s->work(s->args, s->scratch, s->lo, s->hi);
    return NULL;
}

/* The passes' scratch is kept from call to call, so that a pass does
   not fault in fresh pages each time (the target programs' scratch, up
   to 0.7 MB a thread, took about 100 page faults a call); a call that
   finds it in use by another takes a buffer of its own.  Both are
   page-aligned. */
#define PAGE 4096
static pthread_mutex_t kept_lock = PTHREAD_MUTEX_INITIALIZER;
static char *kept;
static size_t kept_size;

/* size bytes of scratch: the kept buffer, grown to size, if *held,
   else a buffer of its own; NULL when it cannot be allocated */
static char *take_scratch(size_t size, int *held)
{
    size = (size + PAGE - 1) / PAGE * PAGE;
    *held = pthread_mutex_trylock(&kept_lock) == 0;
    if (!*held)
        return aligned_alloc(PAGE, size);
    if (kept_size < size) {
        free(kept);
        kept = aligned_alloc(PAGE, size);
        kept_size = kept ? size : 0;
    }
    if (!kept) {
        pthread_mutex_unlock(&kept_lock);
        *held = 0;
    }
    return kept;
}

static void give_scratch(char *space, int held)
{
    if (held)
        pthread_mutex_unlock(&kept_lock);
    else
        free(space);
}

/* Splits n_units units into n_threads contiguous ranges, n_threads
   clamped to [1, n_units], and runs work on each on a pthread of its own
   with `scratch` bytes of scratch of its own; the parts lie end to end
   from a page boundary, so each keeps any alignment up to a page that
   divides `scratch`.  The calling thread takes the first range and any
   whose thread fails to start.  Returns -1 when the ranges or their
   scratch cannot be allocated, else whether every range's work returned
   nonzero. */
static int share_out(work_t work, const void *args, int64_t n_units,
                     int64_t n_threads, size_t scratch)
{
    if (n_threads > n_units)
        n_threads = n_units;
    if (n_threads < 1)
        n_threads = 1;
    int held = 0;
    share_t *shares = malloc(n_threads * sizeof *shares);
    char *space = scratch ? take_scratch(n_threads * scratch, &held) : NULL;
    if (!shares || (scratch && !space)) {
        free(shares);
        give_scratch(space, held);
        return -1;
    }
    for (int64_t t = 0; t < n_threads; t++)
        shares[t] = (share_t){.work = work, .args = args,
                              .scratch = space ? space + t * scratch : NULL,
                              .lo = n_units * t / n_threads,
                              .hi = n_units * (t + 1) / n_threads};
    for (int64_t t = 1; t < n_threads; t++)
        shares[t].started = pthread_create(&shares[t].thread, NULL,
                                           run_share, &shares[t]) == 0;
    int all = 1;
    for (int64_t t = 0; t < n_threads; t++) {
        if (shares[t].started)
            pthread_join(shares[t].thread, NULL);
        else
            run_share(&shares[t]);
        all &= shares[t].result != 0;
    }
    free(shares);
    give_scratch(space, held);
    return all;
}

/* one opo3_chunk_step call's arguments */
typedef struct {
    double *state; const double *w; uint64_t *gens; double scale;
    uint8_t *alive; int64_t *first_bad; int64_t nb, n_steps;
    double eps, m_pump, dt, e_pump, thr2; int64_t step0;
} step_args_t;

/* the pump mode: m + (a - m)*e_pump + dt*(-eps*b*c) */
static ALWAYS_INLINE void pump_step(const step_args_t *r, const lanes_t *a,
                                    const lanes_t *b, const lanes_t *c,
                                    lanes_t *next)
{
    lanes_t eb = {-r->eps * b->re, -r->eps * b->im}, p;
    cmul(&eb, c, &p);
    next->re = r->m_pump + (a->re - r->m_pump) * r->e_pump + r->dt * p.re;
    next->im = a->im * r->e_pump + r->dt * p.im;
}

/* a signal mode: s + dt*(eps*p*q - s) + root*dw */
static ALWAYS_INLINE void signal_step(const step_args_t *r, const lanes_t *s,
                                      const lanes_t *p, const lanes_t *q,
                                      const lanes_t *root, const lanes_t *dw,
                                      lanes_t *next)
{
    lanes_t ep = {r->eps * p->re, r->eps * p->im}, d, f;
    cmul(&ep, q, &d);
    cmul(root, dw, &f);
    next->re = s->re + r->dt * (d.re - s->re) + f.re;
    next->im = s->im + r->dt * (d.im - s->im) + f.im;
}

/* clears the lanes of ok where |z|^2 exceeds thr2 or is NaN */
static ALWAYS_INLINE void and_inside(vmask *ok, const lanes_t *z, double thr2)
{
    *ok &= z->re * z->re + z->im * z->im <= thr2;
}

/* Trajectories [lo, hi) in groups of LANES.  A lane that is dead, or past
   hi, is masked: it draws nothing and its state and generator stay as
   they are; a lane that leaves the threshold keeps its last good state. */
static LANE_CLONES int step_range(const void *args, void *scratch,
                                  int64_t lo, int64_t hi)
{
    /* a local copy, which the stores through alive cannot alias */
    const step_args_t copy = *(const step_args_t *)args, *r = &copy;
    const int64_t nb = r->nb;
    const int drawn = r->gens != NULL;
    double *state = r->state;          /* (6, nb) complex, (re, im) pairs */
    (void)scratch;
    for (int64_t j0 = lo; j0 < hi; j0 += LANES) {
        double parts[12][LANES], w[4][LANES] = {{0}};
        pcg64_t g[LANES] = {{0}};
        const double *wl[LANES] = {0};
        vmask keep = {0};
        for (int k = 0; k < LANES; k++) {
            const int64_t j = j0 + k;
            const int on = j < hi && r->alive[j];
            keep[k] = -on;
            /* masked lanes hold 1 + 0i, which takes no rescaled root */
            for (int i = 0; i < 12; i++)
                parts[i][k] = on ? state[2 * ((i / 2) * nb + j) + i % 2]
                                 : (double)(i % 2 == 0);
            if (on && drawn)
                g[k] = LOAD_PCG64(r->gens + 4 * j);
            if (on && !drawn)
                wl[k] = r->w + j * r->n_steps * 4;
        }
        const vmask loaded = keep;
        lanes_t a[6];                   /* a0, a1, a2, a0p, a1p, a2p */
        memcpy(a, parts, sizeof a);
        for (int64_t c = 0; c < r->n_steps; c++) {
            /* each live lane's four normals, drawn a column at a time
               across the lanes, so that their generators advance side by
               side while each draws its own four in order, or read */
            if (drawn) {
                for (int i = 0; i < 4; i++)
                    for (int k = 0; k < LANES; k++)
                        if (keep[k])
                            w[i][k] = standard_normal(&g[k]) * r->scale;
            } else {
                for (int k = 0; k < LANES; k++)
                    if (keep[k])
                        for (int i = 0; i < 4; i++)
                            w[i][k] = wl[k][4 * c + i];
            }
            lanes_t dw[4], z, root0, root0p, next[6];
            memcpy(&dw[0].re, w[0], sizeof dw[0].re);
            memcpy(&dw[0].im, w[1], sizeof dw[0].im);
            memcpy(&dw[2].re, w[2], sizeof dw[2].re);
            memcpy(&dw[2].im, w[3], sizeof dw[2].im);
            /* dw1 = w0 + i w1, dw2 = w0 - i w1, and alike for dw1p, dw2p */
            dw[1] = (lanes_t){dw[0].re, -dw[0].im};
            dw[3] = (lanes_t){dw[2].re, -dw[2].im};
            z = (lanes_t){r->eps * a[0].re, r->eps * a[0].im};
            lane_root(&z, &root0);
            z = (lanes_t){r->eps * a[3].re, r->eps * a[3].im};
            lane_root(&z, &root0p);
            pump_step(r, &a[0], &a[1], &a[2], &next[0]);
            pump_step(r, &a[3], &a[4], &a[5], &next[3]);
            signal_step(r, &a[1], &a[5], &a[0], &root0, &dw[0], &next[1]);
            signal_step(r, &a[2], &a[4], &a[0], &root0, &dw[1], &next[2]);
            signal_step(r, &a[4], &a[2], &a[3], &root0p, &dw[2], &next[4]);
            signal_step(r, &a[5], &a[1], &a[3], &root0p, &dw[3], &next[5]);
            vmask ok = ~(vmask){0};
            for (int i = 0; i < 6; i++)
                and_inside(&ok, &next[i], r->thr2);
            const vmask died = keep & ~ok;
            if (died[0] | died[1] | died[2] | died[3]) {
                for (int k = 0; k < LANES; k++) {
                    if (died[k]) {
                        r->alive[j0 + k] = 0;
                        r->first_bad[j0 + k] = r->step0 + c;
                    }
                }
                keep &= ok;
            }
            if (keep[0] & keep[1] & keep[2] & keep[3]) {
                memcpy(a, next, sizeof a);
            } else {
                if (!(keep[0] | keep[1] | keep[2] | keep[3]))
                    break;
                for (int i = 0; i < 6; i++) {
                    a[i].re = VSELECT(keep, next[i].re, a[i].re);
                    a[i].im = VSELECT(keep, next[i].im, a[i].im);
                }
            }
        }
        memcpy(parts, a, sizeof parts);
        for (int k = 0; k < LANES; k++) {
            const int64_t j = j0 + k;
            if (!loaded[k])
                continue;
            for (int i = 0; i < 12; i++)
                state[2 * ((i / 2) * nb + j) + i % 2] = parts[i][k];
            if (drawn)
                store_pcg64(&g[k], r->gens + 4 * j);
        }
    }
    return 1;
}

/* With gens NULL the noise is read from w, (nb, n_steps, 4) and already
   scaled; otherwise trajectory j draws each step's four normals from the
   PCG64 in gens[4j..4j+3] as it takes the step, scales them by `scale`,
   and writes the generator back at the end of the chunk.  n_threads is
   clamped to [1, nb].  Returns -1 when the ranges cannot be allocated. */
int opo3_chunk_step(double *state, const double *w, uint64_t *gens,
                    double scale, uint8_t *alive, int64_t *first_bad,
                    int64_t nb, int64_t n_steps, double eps, double m_pump,
                    double dt, double e_pump, double thr2, int64_t step0,
                    int64_t n_threads)
{
    const step_args_t args = {state, w, gens, scale, alive, first_bad, nb,
                              n_steps, eps, m_pump, dt, e_pump, thr2, step0};
    return share_out(step_range, &args, nb, n_threads, 0) < 0 ? -1 : 0;
}

/* The key sums of the moment accumulator take KEY_TILE batches at a time,
   across the vector lanes, with one row of the tile's products and one of
   its sums per key, real and imaginary parts apart: 256 bytes a key, so
   that for K up to about 120 keys they stay in a 32 KB L1 cache. */
#define KEY_TILE 8
#define KEY_VECS (KEY_TILE / LANES)
typedef struct { vdouble re[KEY_VECS], im[KEY_VECS]; } key_row_t;
#define BATCH(row, b) ((row)[(b) / LANES][(b) % LANES])
static const double zero_pair[2] = {0, 0};

/* one opo3_key_sums call's arguments; strides in bytes */
typedef struct {
    const char *values; int64_t s_ch, s_b, s_n;
    const double *centers; const int64_t *prefixes;
    int64_t n_ch, n_keys, nb, n;
    char *block; int64_t s_out; double *chains; int fresh;
} key_args_t;

/* Tiles [t0, t1), its scratch a row of products and one of sums per
   key; returns whether every batch sum it wrote is finite */
static LANE_CLONES int key_tiles(const void *args, void *scratch,
                                 int64_t t0, int64_t t1)
{
    const key_args_t *a = args;
    const int64_t n_ch = a->n_ch, n_keys = a->n_keys;
    key_row_t *prod = scratch, *sum = prod + n_keys;
    int finite = 1;
    for (int64_t b0 = t0 * KEY_TILE; b0 < a->nb && b0 < t1 * KEY_TILE;
         b0 += KEY_TILE) {
        const int64_t width = a->nb - b0 < KEY_TILE ? a->nb - b0 : KEY_TILE;
        for (int64_t j = 0; j < a->n; j++) {
            /* the centered values fill the singleton rows; lanes past the
               last batch read zeros.  Each vector is built in registers:
               one stored lane by lane would stall its load */
            for (int64_t c = 0; c < n_ch; c++) {
                const char *v = a->values + c * a->s_ch + b0 * a->s_b
                                + j * a->s_n;
                const vdouble center_re = (vdouble){} + a->centers[2 * c];
                const vdouble center_im = (vdouble){} + a->centers[2 * c + 1];
                for (int i = 0; i < KEY_VECS; i++) {
                    double z[LANES][2];
                    for (int l = 0; l < LANES; l++) {
                        const int64_t b = i * LANES + l;
                        memcpy(z[l], b < width ? v + b * a->s_b
                                               : (const char *)zero_pair,
                               sizeof z[l]);
                    }
                    prod[c].re[i] = (vdouble){z[0][0], z[1][0], z[2][0],
                                              z[3][0]} - center_re;
                    prod[c].im[i] = (vdouble){z[0][1], z[1][1], z[2][1],
                                              z[3][1]} - center_im;
                }
            }
            /* each later key is its prefix times one channel */
            for (int64_t k = n_ch; k < n_keys; k++) {
                const key_row_t *p = &prod[a->prefixes[2 * (k - n_ch)]];
                const key_row_t *q = &prod[a->prefixes[2 * (k - n_ch) + 1]];
                for (int i = 0; i < KEY_VECS; i++) {
                    prod[k].re[i] = p->re[i] * q->re[i] - p->im[i] * q->im[i];
                    prod[k].im[i] = p->re[i] * q->im[i] + p->im[i] * q->re[i];
                }
            }
            /* per batch, in sample order */
            if (j == 0) {
                memcpy(sum, prod, n_keys * sizeof *sum);
            } else {
                for (int64_t k = 0; k < n_keys; k++) {
                    for (int i = 0; i < KEY_VECS; i++) {
                        sum[k].re[i] += prod[k].re[i];
                        sum[k].im[i] += prod[k].im[i];
                    }
                }
            }
            /* per sample, one chain in batch order; a fresh chain starts
               at the first batch's product */
            if (a->chains) {
                const int start = a->fresh && b0 == 0;
                for (int64_t k = 0; k < n_keys; k++) {
                    double *z = a->chains + 2 * (k * a->n + j);
                    double re = start ? BATCH(prod[k].re, 0) : z[0];
                    double im = start ? BATCH(prod[k].im, 0) : z[1];
                    for (int64_t b = start; b < width; b++) {
                        re += BATCH(prod[k].re, b);
                        im += BATCH(prod[k].im, b);
                    }
                    z[0] = re;
                    z[1] = im;
                }
            }
        }
        for (int64_t k = 0; k < n_keys; k++) {
            double *out = (double *)(a->block + k * a->s_out) + 2 * b0;
            for (int64_t b = 0; b < width; b++) {
                out[2 * b] = BATCH(sum[k].re, b);
                out[2 * b + 1] = BATCH(sum[k].im, b);
                finite &= isfinite(out[2 * b]) && isfinite(out[2 * b + 1]);
            }
        }
    }
    return finite;
}

static int all_finite(const double *x, int64_t n)
{
    int finite = 1;
    for (int64_t i = 0; i < n; i++)
        finite &= isfinite(x[i]) != 0;
    return finite;
}

/* The sums of the key products of nb batches of n samples each: values is
   a (n_ch, nb, n) complex array with byte strides s_ch, s_b and s_n,
   centers (n_ch) complex, and key k >= n_ch the product of key
   prefixes[2(k - n_ch)], an earlier one, and channel
   prefixes[2(k - n_ch) + 1]; singleton keys are the centered channels.
   Every complex product is the textbook (ac - bd, ad + bc).  block
   (n_keys, nb) complex, its rows s_out bytes apart and its columns
   adjacent, gets each batch's products added in sample order.
   Unless chains is NULL, chains (n_keys, n) complex gets each sample
   index's products added in batch order, onto base (n_keys, n) complex,
   or from the first batch's product when base is NULL.  Returns -1 when
   the tile cannot be allocated, -2 for a prefix that is not an earlier
   key or a channel that is not one, -3 when a batch sum is not finite
   and else -4 when a per-sample sum is not.  Without chains the tiles
   are split over n_threads threads (see share_out); each tile is summed
   by one thread as it would be by one alone, so no byte depends on the
   count.  The chains add the batches in order, so with them one thread
   takes every tile. */
int opo3_key_sums(const char *values, int64_t s_ch, int64_t s_b,
                  int64_t s_n, const double *centers,
                  const int64_t *prefixes, int64_t n_ch, int64_t n_keys,
                  int64_t nb, int64_t n, const double *base, char *block,
                  int64_t s_out, double *chains, int64_t n_threads)
{
    for (int64_t k = n_ch; k < n_keys; k++) {
        const int64_t p = prefixes[2 * (k - n_ch)];
        const int64_t c = prefixes[2 * (k - n_ch) + 1];
        if (p < 0 || p >= k || c < 0 || c >= n_ch)
            return -2;
    }
    if (chains && base)
        memcpy(chains, base, 2 * n_keys * n * sizeof *chains);
    const key_args_t args = {values, s_ch, s_b, s_n, centers, prefixes, n_ch,
                             n_keys, nb, n, block, s_out, chains,
                             base == NULL};
    const int finite = share_out(key_tiles, &args,
                                 (nb + KEY_TILE - 1) / KEY_TILE,
                                 chains ? 1 : n_threads,
                                 2 * n_keys * sizeof(key_row_t));
    if (finite < 0)
        return -1;
    if (!finite)
        return -3;
    return chains && !all_finite(chains, 2 * n_keys * n) ? -4 : 0;
}

/* The targets of the moment accumulator are stack programs, one op and
   its argument a row: KEY k pushes key k's sum, N the sample count,
   SHIFT k multiplies the top by minus the mean of key k, SCALE j and
   OFFSET j multiply and add constant j, ADD adds the top into the one
   below, MEAN multiplies the top by 1/n and STORE t pops it into output
   row t.  The order matches TARGET_OPS in the Python source. */
enum { OP_KEY, OP_N, OP_SHIFT, OP_SCALE, OP_ADD, OP_MEAN, OP_OFFSET,
       OP_STORE };
/* TARGET_TILE batches at a time across the vector lanes, real and
   imaginary parts apart: 4 KB a row, so that a tile's rows stay in L2
   and each key sum is read in 4 KB runs, which stream from memory about
   a third faster than 1 KB ones, while each op's dispatch is paid once
   for 256 batches (at 16 it costs more than the arithmetic) */
#define TARGET_TILE 256
#define TARGET_VECS (TARGET_TILE / LANES)
typedef struct { vdouble re[TARGET_VECS], im[TARGET_VECS]; } target_row_t;

/* one opo3_targets call's arguments; strides in bytes */
typedef struct {
    const char *const *tiles; int64_t s_k, s_b;
    const double *totals, *n, *consts;
    const int64_t *ops;
    const uint8_t *use;     /* per key, bit 0: its sum is read, bit 1: its
                               mean shifts */
    int64_t n_read, n_shift;     /* the keys past the last read, shifted */
    int64_t nb, n_ops;
    double *out;
} target_args_t;

/* the top of the stack times q, the textbook product */
static ALWAYS_INLINE void row_cmul(target_row_t *top, const vdouble *q_re,
                                   const vdouble *q_im)
{
    for (int i = 0; i < TARGET_VECS; i++) {
        const vdouble re = top->re[i] * q_re[i] - top->im[i] * q_im[i];
        const vdouble im = top->re[i] * q_im[i] + top->im[i] * q_re[i];
        top->re[i] = re;
        top->im[i] = im;
    }
}

/* Tiles [t0, t1), its scratch a row of key sums per key up to the last
   read, one of minus their means per key up to the last shifted, then
   the stack */
static LANE_CLONES int target_tiles(const void *args, void *scratch,
                                    int64_t t0, int64_t t1)
{
    const target_args_t *a = args;
    target_row_t *keys = scratch, *negs = keys + a->n_read;
    target_row_t *stack = negs + a->n_shift;
    for (int64_t b0 = t0 * TARGET_TILE; b0 < a->nb && b0 < t1 * TARGET_TILE;
         b0 += TARGET_TILE) {
        const int64_t width = a->nb - b0 < TARGET_TILE ? a->nb - b0
                                                       : TARGET_TILE;
        /* lanes past the last batch count 1 sample of zeros */
        double counts[TARGET_TILE];
        for (int b = 0; b < TARGET_TILE; b++)
            counts[b] = b < width ? a->n[b0 + b] : 1.0;
        vdouble n[TARGET_VECS], inv[TARGET_VECS];
        memcpy(n, counts, sizeof n);
        for (int i = 0; i < TARGET_VECS; i++)
            inv[i] = 1.0 / n[i];
        /* each key sum the program reads: totals - sums[k, b] leaves
           batch b out; without totals, sums[k, b] itself.  A whole tile
           of adjacent complex values is read as vectors */
        const int packed = width == TARGET_TILE && a->s_b == 16;
        for (int64_t k = 0; k < a->n_read; k++) {
            if (!(a->use[k] & 1))
                continue;
            const char *v = a->tiles[b0 / TARGET_TILE] + k * a->s_k;
            for (int i = 0; i < TARGET_VECS; i++) {
                vdouble re, im;
                if (packed) {
                    /* two vectors of (re, im) pairs, split by shuffles */
                    vdouble lo, hi;
                    memcpy(&lo, v + i * LANES * 16, sizeof lo);
                    memcpy(&hi, v + i * LANES * 16 + 32, sizeof hi);
                    re = __builtin_shuffle(lo, hi, (vmask){0, 2, 4, 6});
                    im = __builtin_shuffle(lo, hi, (vmask){1, 3, 5, 7});
                } else {
                    double z[LANES][2];
                    for (int l = 0; l < LANES; l++) {
                        const int64_t b = i * LANES + l;
                        memcpy(z[l], b < width ? v + b * a->s_b
                                               : (const char *)zero_pair,
                               sizeof z[l]);
                    }
                    re = (vdouble){z[0][0], z[1][0], z[2][0], z[3][0]};
                    im = (vdouble){z[0][1], z[1][1], z[2][1], z[3][1]};
                }
                if (a->totals) {
                    keys[k].re[i] = a->totals[2 * k] - re;
                    keys[k].im[i] = a->totals[2 * k + 1] - im;
                } else {
                    keys[k].re[i] = re;
                    keys[k].im[i] = im;
                }
            }
        }
        /* minus each shifted key's mean */
        for (int64_t k = 0; k < a->n_shift; k++) {
            for (int i = 0; i < TARGET_VECS && a->use[k] & 2; i++) {
                negs[k].re[i] = -(keys[k].re[i] * inv[i]);
                negs[k].im[i] = -(keys[k].im[i] * inv[i]);
            }
        }
        int64_t sp = 0;
        for (int64_t p = 0; p < a->n_ops; p++) {
            const int64_t arg = a->ops[2 * p + 1];
            target_row_t *top = stack + (sp > 0 ? sp - 1 : 0);
            vdouble c_re[TARGET_VECS], c_im[TARGET_VECS];
            switch (a->ops[2 * p]) {
            case OP_KEY:
                stack[sp++] = keys[arg];
                break;
            case OP_N:
                for (int i = 0; i < TARGET_VECS; i++) {
                    stack[sp].re[i] = n[i];
                    stack[sp].im[i] = (vdouble){};
                }
                sp++;
                break;
            case OP_SHIFT:
                row_cmul(top, negs[arg].re, negs[arg].im);
                break;
            case OP_SCALE:
                for (int i = 0; i < TARGET_VECS; i++) {
                    c_re[i] = (vdouble){} + a->consts[2 * arg];
                    c_im[i] = (vdouble){} + a->consts[2 * arg + 1];
                }
                row_cmul(top, c_re, c_im);
                break;
            case OP_ADD:
                for (int i = 0; i < TARGET_VECS; i++) {
                    top[-1].re[i] += top->re[i];
                    top[-1].im[i] += top->im[i];
                }
                sp--;
                break;
            case OP_MEAN:
                for (int i = 0; i < TARGET_VECS; i++) {
                    top->re[i] *= inv[i];
                    top->im[i] *= inv[i];
                }
                break;
            case OP_OFFSET:
                for (int i = 0; i < TARGET_VECS; i++) {
                    top->re[i] += a->consts[2 * arg];
                    top->im[i] += a->consts[2 * arg + 1];
                }
                break;
            case OP_STORE: {
                double *out = a->out + 2 * (arg * a->nb + b0);
                for (int64_t b = 0; b < width; b++) {
                    out[2 * b] = BATCH(top->re, b);
                    out[2 * b + 1] = BATCH(top->im, b);
                }
                sp--;
                break;
            }
            }
        }
    }
    return 1;
}

/* Runs the program ops (n_ops rows of op and argument) on nb columns:
   column b reads its key sums from the (n_keys, nb) complex sums, whose
   tile t of TARGET_TILE columns starts at tiles[t] (a page, see
   opo3_totals) with byte strides s_k and s_b, as totals (n_keys) complex
   minus sums[:, b], or as sums[:, b] when totals is NULL, and counts n[b]
   samples; consts
   (n_consts) complex; out (n_out, nb) complex.  Every complex product is
   the textbook (ac - bd, ad + bc).  The tiles are split over n_threads
   threads (see share_out), each tile run by one thread as it would be by
   one alone, so no byte depends on the count.  Returns -1 when the tiles
   cannot be allocated and -2 for a program with an argument out of
   range, an op short of operands or values left on the stack. */
int opo3_targets(const char *const *tiles, int64_t s_k, int64_t s_b,
                 const double *totals, const double *n, int64_t nb,
                 int64_t n_keys, const int64_t *ops, int64_t n_ops,
                 const double *consts, int64_t n_consts, double *out,
                 int64_t n_out, int64_t n_threads)
{
    uint8_t *use = calloc(n_keys + 1, 1);
    if (!use)
        return -1;
    int64_t sp = 0, depth = 1, bad = 0, n_read = 0, n_shift = 0;
    for (int64_t p = 0; p < n_ops && !bad; p++) {
        const int64_t op = ops[2 * p], arg = ops[2 * p + 1];
        const int64_t need = op == OP_KEY || op == OP_N ? 0
                             : op == OP_ADD ? 2 : 1;
        const int64_t limit = op == OP_KEY || op == OP_SHIFT ? n_keys
                              : op == OP_SCALE || op == OP_OFFSET ? n_consts
                              : op == OP_STORE ? n_out : 1;
        bad = op < OP_KEY || op > OP_STORE || sp < need || arg < 0
              || arg >= limit;
        if (bad)
            break;
        if (op == OP_KEY || op == OP_SHIFT) {
            use[arg] |= op == OP_KEY ? 1 : 3;
            n_read = arg + 1 > n_read ? arg + 1 : n_read;
        }
        if (op == OP_SHIFT)
            n_shift = arg + 1 > n_shift ? arg + 1 : n_shift;
        sp += op == OP_KEY || op == OP_N ? 1
              : op == OP_ADD || op == OP_STORE ? -1 : 0;
        depth = sp > depth ? sp : depth;
    }
    if (bad || sp != 0) {
        free(use);
        return -2;
    }
    const target_args_t args = {tiles, s_k, s_b, totals, n, consts, ops,
                                use, n_read, n_shift, nb, n_ops, out};
    const int done = share_out(target_tiles, &args,
                               (nb + TARGET_TILE - 1) / TARGET_TILE,
                               n_threads,
                               (n_read + n_shift + depth)
                               * sizeof(target_row_t));
    free(use);
    return done < 0 ? -1 : 0;
}

/* The jackknife's spreads sum over a row of complex values as doubles,
   (re, im) pairs, zero-padded to whole groups of SPREAD_GROUP: each lane
   adds its value of every group in order, and then each part's lanes
   are added in order, its first lane first.  The order matches
   `_oracle._spreads_numpy`. */
#define SPREAD_GROUP 32
#define SPREAD_VECS (SPREAD_GROUP / LANES)

/* the sums of each part of x (n2 doubles) or, given its means, of each
   part's squared deviations from its mean */
static LANE_CLONES void part_sums(const double *x, int64_t n2,
                                  const double *mean, double *sums)
{
    /* past the row, a group holds the means, which deviate by +0 */
    double pad[SPREAD_GROUP];
    for (int j = 0; j < SPREAD_GROUP; j++)
        pad[j] = mean ? mean[j % 2] : 0.0;
    vdouble m[SPREAD_VECS], acc[SPREAD_VECS] = {};
    memcpy(m, pad, sizeof m);
    for (int64_t g = 0; g < n2; g += SPREAD_GROUP) {
        const double *src = x + g;
        double group[SPREAD_GROUP];
        if (n2 - g < SPREAD_GROUP) {
            memcpy(group, pad, sizeof group);
            memcpy(group, x + g, (n2 - g) * sizeof *x);
            src = group;
        }
        for (int i = 0; i < SPREAD_VECS; i++) {
            vdouble v;
            memcpy(&v, src + i * LANES, sizeof v);
            if (mean) {
                v -= m[i];
                v *= v;
            }
            acc[i] += v;
        }
    }
    double lanes[SPREAD_GROUP];
    memcpy(lanes, acc, sizeof lanes);
    sums[0] = lanes[0];
    sums[1] = lanes[1];
    for (int j = 2; j < SPREAD_GROUP; j++)
        sums[j % 2] += lanes[j];
}

/* one opo3_spreads call's arguments */
typedef struct { const double *rows; int64_t nb; double *out; } spread_args_t;

/* rows [r0, r1) */
static int spread_rows(const void *args, void *scratch, int64_t r0,
                       int64_t r1)
{
    const spread_args_t *a = args;
    (void)scratch;
    for (int64_t r = r0; r < r1; r++) {
        const double *x = a->rows + 2 * r * a->nb;
        double mean[2];
        part_sums(x, 2 * a->nb, NULL, mean);
        mean[0] /= (double)a->nb;
        mean[1] /= (double)a->nb;
        part_sums(x, 2 * a->nb, mean, a->out + 2 * r);
    }
    return 1;
}

/* For each of n_rows rows of nb complex values, C-contiguous, the sums
   of the squared deviations of its real and its imaginary parts from
   their means, the sums over nb, into out (n_rows, 2).  The rows are
   split over n_threads threads (see share_out), each row summed by one
   thread, so no byte depends on the count.  Returns -1 when the ranges
   cannot be allocated. */
int opo3_spreads(const double *rows, int64_t n_rows, int64_t nb,
                 double *out, int64_t n_threads)
{
    const spread_args_t args = {rows, nb, out};
    return share_out(spread_rows, &args, n_rows, n_threads, 0) < 0 ? -1 : 0;
}

/* The key sums of the moment accumulator lie in pages, (n_keys,
   TARGET_TILE) complex C-contiguous arrays, page p holding columns [256p,
   256p + 256).  Their totals are numpy's row sums of the joined array
   (sum(axis=1)): +0 plus a pairwise tree over the row's doubles, (re, im)
   pairs.  A range of at most PAIRWISE_LEAF doubles is a leaf, summed in
   eight partial sums, a part each, the rest added after; a longer one
   splits at half its length rounded down to a multiple of 8.  Every
   range starts at a multiple of 8 doubles, 4 columns, which a page
   boundary is too, so no step of 8 straddles a page. */
#define PAIRWISE_LEAF 128

/* one opo3_totals call's arguments */
typedef struct {
    const char *const *pages; int64_t s_k, nb; double *out;
} totals_args_t;

/* column b of row k */
static ALWAYS_INLINE const double *page_at(const totals_args_t *a, int64_t k,
                                           int64_t b)
{
    return (const double *)(a->pages[b / TARGET_TILE] + k * a->s_k)
           + 2 * (b % TARGET_TILE);
}

/* the sums of the real and imaginary parts of the doubles [lo, lo + n)
   of row k, numpy's pairwise_sum */
static void pairwise(const totals_args_t *a, int64_t k, int64_t lo,
                     int64_t n, double *sums)
{
    int64_t i = 0;
    if (n < 8) {
        sums[0] = sums[1] = -0.0;
    } else if (n <= PAIRWISE_LEAF) {
        double r[8];
        memcpy(r, page_at(a, k, lo / 2), sizeof r);
        for (i = 8; i < n - n % 8; i += 8) {
            const double *z = page_at(a, k, (lo + i) / 2);
            for (int j = 0; j < 8; j++)
                r[j] += z[j];
        }
        sums[0] = (r[0] + r[2]) + (r[4] + r[6]);
        sums[1] = (r[1] + r[3]) + (r[5] + r[7]);
    } else {
        double left[2], right[2];
        const int64_t half = n / 2 - n / 2 % 8;
        pairwise(a, k, lo, half, left);
        pairwise(a, k, lo + half, n - half, right);
        sums[0] = left[0] + right[0];
        sums[1] = left[1] + right[1];
        return;
    }
    for (; i < n; i += 2) {
        const double *z = page_at(a, k, (lo + i) / 2);
        sums[0] += z[0];
        sums[1] += z[1];
    }
}

/* rows [r0, r1) */
static int total_rows(const void *args, void *scratch, int64_t r0,
                      int64_t r1)
{
    const totals_args_t *a = args;
    (void)scratch;
    for (int64_t k = r0; k < r1; k++) {
        double sums[2];
        pairwise(a, k, 0, 2 * a->nb, sums);
        a->out[2 * k] = 0.0 + sums[0];
        a->out[2 * k + 1] = 0.0 + sums[1];
    }
    return 1;
}

/* The totals of nb >= 1 columns of n_keys rows into out (n_keys) complex:
   column b of row k at pages[b / TARGET_TILE] + k * s_k, the page's
   columns adjacent.  The rows are split over n_threads threads (see
   share_out), each row summed by one thread, so no byte depends on the
   count.  Returns -1 when the ranges cannot be allocated. */
int opo3_totals(const char *const *pages, int64_t s_k, int64_t n_keys,
                int64_t nb, double *out, int64_t n_threads)
{
    const totals_args_t args = {pages, s_k, nb, out};
    return share_out(total_rows, &args, n_keys, n_threads, 0) < 0 ? -1 : 0;
}
